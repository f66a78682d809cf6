import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from conftest import make_dataset, make_problem, make_record
from prockt import synth
from prockt.data import (
    DIMENSIONS,
    MP_IMPUTE,
    Dataset,
    DatasetFormatError,
    MPRatios,
    Problem,
    SplitError,
    StudentSequence,
    ValidationError,
    Vocab,
    count_process_lines,
    load_dataset,
    make_batches,
    preprocess,
    save_dataset,
    split,
)
from prockt.data.batches import shift_left
from prockt.pipeline import MockChatClient, run_pipeline


class TestSchema:
    def test_problem_round_trip(self, problem):
        assert Problem.from_json(problem.to_json()) == problem

    def test_problem_bad_question_type(self):
        with pytest.raises(ValidationError):
            make_problem(qtype="essay").validate()

    def test_problem_difficulty_out_of_range(self):
        p = make_problem()
        p.difficulty = 6
        with pytest.raises(ValidationError):
            p.validate()

    def test_problem_empty_concepts(self):
        p = make_problem()
        p.kc_ids = []
        with pytest.raises(ValidationError):
            p.validate()

    def test_record_correct_must_be_binary(self):
        with pytest.raises(ValidationError):
            make_record(correct=2).validate()

    def test_record_round_trip(self):
        rec = make_record(mp=MPRatios.from_counts({"CU": (1, 3)}))
        got = type(rec).from_json(json.loads(json.dumps(rec.to_json())))
        assert got == rec

    def test_sequence_rejects_unsorted_timestamps(self):
        steps = [make_record(timestamp=2000), make_record(timestamp=1000)]
        with pytest.raises(ValidationError):
            StudentSequence(student_id="s1", steps=steps).validate()

    def test_mp_ratios_from_counts(self):
        mp = MPRatios.from_counts({"CU": (2, 3), "AR": (0, 2)})
        assert mp.values["CU"] == 2 / 3
        assert mp.present == {"CU": True, "SC": False, "PF": False, "AR": True}
        assert mp.values["SC"] == 0.0 and not mp.present["SC"]

    def test_mp_ratios_reject_bad_counts(self):
        with pytest.raises(ValidationError):
            MPRatios.from_counts({"CU": (4, 3)})

    def test_mp_ratios_round_trip(self):
        mp = MPRatios.from_counts({"PF": (4, 5), "SC": (1, 6)})
        assert MPRatios.from_json(mp.to_json()) == mp


class TestLoadSave:
    def test_round_trip(self, tmp_path, dataset):
        save_dataset(tmp_path, dataset)
        loaded = load_dataset(tmp_path)
        assert loaded.problems == dataset.problems
        assert loaded.sequences == dataset.sequences

    def test_interleaved_records_grouped_and_sorted(self, tmp_path):
        problems = [make_problem(pid="p0")]
        # two students interleaved, timestamps deliberately out of order
        records = [
            make_record(sid="a", pid="p0", timestamp=3000),
            make_record(sid="b", pid="p0", timestamp=2000),
            make_record(sid="a", pid="p0", timestamp=1000),
            make_record(sid="b", pid="p0", timestamp=4000),
        ]
        (tmp_path / "problems.json").write_text(json.dumps([p.to_json() for p in problems]))
        with open(tmp_path / "interactions.jsonl", "w") as fh:
            for rec in records:
                fh.write(json.dumps(rec.to_json()) + "\n")
        loaded = load_dataset(tmp_path)
        assert [seq.student_id for seq in loaded.sequences] == ["a", "b"]
        for seq in loaded.sequences:
            ts = [rec.timestamp for rec in seq.steps]
            assert ts == sorted(ts)
        assert loaded.num_interactions() == 4

    def test_malformed_line_reports_line_number(self, tmp_path, dataset):
        save_dataset(tmp_path, dataset)
        with open(tmp_path / "interactions.jsonl", "a") as fh:
            fh.write("{not json\n")
        with pytest.raises(DatasetFormatError, match="line 13"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("edit, error", [
        ({"counts": {"CU": [1.9, 2]}}, "ValidationError"),
        ({"counts": {"CU": ["1", 2]}}, "ValidationError"),
        ({"counts": {"CU": [True, 2]}}, "ValidationError"),
        ({"counts": {"AR": [0, 0]}, "present": {"AR": False}, "values": {"AR": 0.7}},
         "ValidationError"),
        ({"counts": {"AR": [2, 0]}, "present": {"AR": False}, "values": {"AR": 0.0}},
         "ValidationError"),
        ({"values": {"CU": 10 ** 400}}, "OverflowError"),
    ], ids=["float-count", "string-count", "bool-count", "value-on-absent-dimension",
            "count-on-absent-dimension", "value-beyond-float"])
    def test_mp_that_is_not_its_counts_names_the_file_and_line(self, tmp_path, dataset,
                                                                edit, error):
        # the three-field record loaded the first five: it truncated counts with int()
        # and read no value or satisfied count of an absent dimension
        save_dataset(tmp_path, dataset)
        path = tmp_path / "interactions.jsonl"
        lines = path.read_text().splitlines()
        doc = json.loads(lines[4])
        for field, dims in edit.items():
            doc["mp"][field].update(dims)
        lines[4] = json.dumps(doc)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError,
                           match=f"{path}: malformed record at line 5: {error}"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("key, value", [
        ("correct", True), ("correct", 1.0), ("timestamp", 1.5), ("timestamp", "1040"),
    ])
    def test_integer_field_that_is_not_an_int_names_the_file_and_line(self, tmp_path, dataset,
                                                                       key, value):
        # each was coerced: true and 1.0 were kept as correct, 1.5 and "1040" loaded as ints
        save_dataset(tmp_path, dataset)
        path = tmp_path / "interactions.jsonl"
        lines = path.read_text().splitlines()
        lines[4] = json.dumps({**json.loads(lines[4]), key: value})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError,
                           match=f"{path}: malformed record at line 5: ValidationError: .*{key}"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("key, value", [
        ("student_id", 7), ("problem_id", 3), ("selected_answer", 2), ("process_text", ["a"]),
        ("duration", True), ("duration", float("inf")), ("duration", float("nan")),
    ])
    def test_field_of_the_wrong_type_names_the_file_and_line(self, tmp_path, dataset, key,
                                                            value):
        # each loaded; true and Infinity were written back, Infinity as invalid JSON
        save_dataset(tmp_path, dataset)
        path = tmp_path / "interactions.jsonl"
        lines = path.read_text().splitlines()
        lines[4] = json.dumps({**json.loads(lines[4]), key: value})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError,
                           match=f"{path}: malformed record at line 5: ValidationError: .*{key}"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("key, value", [("problem_id", 3), ("text", 5), ("kc_ids", [1])])
    def test_problem_field_of_the_wrong_type_names_the_file(self, tmp_path, dataset, key,
                                                           value):
        save_dataset(tmp_path, dataset)
        path = tmp_path / "problems.json"
        docs = json.loads(path.read_text())
        docs[2][key] = value
        path.write_text(json.dumps(docs))
        with pytest.raises(DatasetFormatError,
                           match=f"{path}: malformed problems: ValidationError: .*{key}"):
            load_dataset(tmp_path)

    def test_dangling_problem_id(self, tmp_path, dataset):
        save_dataset(tmp_path, dataset)
        with open(tmp_path / "interactions.jsonl", "a") as fh:
            fh.write(json.dumps(make_record(pid="ghost").to_json()) + "\n")
        with pytest.raises(ValidationError, match="ghost"):
            load_dataset(tmp_path)

    def test_duplicate_problem_id(self, tmp_path, dataset):
        save_dataset(tmp_path, dataset)
        docs = json.loads((tmp_path / "problems.json").read_text())
        docs.append(docs[0])
        (tmp_path / "problems.json").write_text(json.dumps(docs))
        with pytest.raises(DatasetFormatError, match="duplicate"):
            load_dataset(tmp_path)


def _two_ints(pair) -> bool:
    return type(pair) is list and len(pair) == 2 and all(type(x) is int for x in pair)


def _newly_rejected(doc) -> bool:
    """Whether a document the three-field oracle accepts is one the counts-only
    record rejects: a count that is not an int, or an absent dimension with a
    value other than 0.0 or a satisfied count other than 0."""
    return any(not _two_ints(doc["counts"][d])
               or not doc["present"][d] and (float(doc["values"][d]) != 0.0
                                             or doc["counts"][d][0] != 0)
               for d in DIMENSIONS)


def _loads(from_json, doc):
    try:
        return from_json(doc)
    except (ValueError, LookupError, TypeError):  # the oracle raised IndexError on [1]
        return None


def _check_against_oracle(doc):
    old, new = _loads(ref.MPRatios.from_json, doc), _loads(MPRatios.from_json, doc)
    if new is not None:
        # counts byte for byte; values numerically, as a -0.0 value is written back as 0.0
        assert old is not None and repr(new.counts) == repr(old.counts)
        assert new.to_json() == old.to_json()
    elif old is not None:
        assert _newly_rejected(doc)


def _base_doc():
    return MPRatios.from_counts({"CU": (1, 2), "PF": (3, 3), "AR": (0, 4)}).to_json()


ODD_PAIRS = [[1.0, 2], [1.9, 2], ["1", 2], [True, 2], [1, 2, 3], [1], "12", None, [-1, 2],
             [3, 2], [0, -1], [2, 0], [-1, 0], [0, 0], [1, 1]]
ODD_VALUES = [0.0, -0.0, 0.5, 0.7, 1, True, "0.5", "x", None, float("nan")]
ODD_BITS = [True, False, 1, 0, "yes", "", None]


class TestMPRatiosOracle:
    """The counts-only record against the three-field one it replaced."""

    def test_mock_annotated_records_match_the_oracle(self, tmp_path):
        data = synth.generate(synth.SimConfig(num_students=6, num_problems=8, num_concepts=3,
                                              steps_per_student=8, seed=5))
        annotated, report = run_pipeline(data, MockChatClient(), tmp_path)
        assert report.annotated == 48
        for seq in annotated.sequences:
            for rec in seq.steps:
                doc = json.loads(json.dumps(rec.mp.to_json()))
                oracle = ref.MPRatios.from_counts(rec.mp.counts)
                assert json.dumps(doc) == json.dumps(oracle.to_json())
                assert json.dumps(MPRatios.from_json(doc).to_json()) == \
                    json.dumps(ref.MPRatios.from_json(doc).to_json())

    @pytest.mark.parametrize("field, values", [
        ("counts", ODD_PAIRS), ("values", ODD_VALUES), ("present", ODD_BITS)])
    @pytest.mark.parametrize("dim", ["CU", "SC"])  # one present, one absent
    def test_one_field_edits_load_as_the_oracle_loads(self, field, values, dim):
        for value in values:
            doc = _base_doc()
            doc[field][dim] = value
            _check_against_oracle(doc)

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["counts"].pop("PF"), lambda doc: doc["values"].pop("AR"),
        lambda doc: doc["present"].pop("CU"), lambda doc: doc.pop("counts"),
        lambda doc: doc["counts"].update(XX=[1, 2]), lambda doc: doc.update(counts=[]),
    ])
    def test_malformed_docs_load_as_the_oracle_loads(self, edit):
        doc = _base_doc()
        edit(doc)
        _check_against_oracle(doc)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_mixed_edits_load_as_the_oracle_loads(self, data):
        doc = _base_doc()
        for field, odd in (("counts", ODD_PAIRS), ("values", ODD_VALUES),
                           ("present", ODD_BITS)):
            doc[field].update(data.draw(st.dictionaries(st.sampled_from(DIMENSIONS),
                                                        st.sampled_from(odd), max_size=3)))
        _check_against_oracle(doc)


class TestPreprocess:
    def test_short_process_boundary(self):
        assert count_process_lines("a\n\nb\n  \nc") == 3
        problems = {"p0": make_problem(pid="p0")}
        seqs = [StudentSequence(student_id="s1", steps=[
            make_record(pid="p0", timestamp=1000, lines=4),
            make_record(pid="p0", timestamp=2000, lines=5),
        ])]
        out, report = preprocess(Dataset(problems=problems, sequences=seqs))
        assert report.dropped_short_process == 1
        assert len(out.sequences[0].steps) == 1
        assert count_process_lines(out.sequences[0].steps[0].process_text) == 5

    def test_textless_problem_dropped(self):
        problems = {"p0": make_problem(pid="p0", text="  "),
                    "p1": make_problem(pid="p1")}
        seqs = [StudentSequence(student_id="s1", steps=[
            make_record(pid="p0", timestamp=1000),
            make_record(pid="p1", timestamp=2000),
        ])]
        out, report = preprocess(Dataset(problems=problems, sequences=seqs))
        assert report.dropped_missing_problem_text == 1
        assert [r.problem_id for r in out.sequences[0].steps] == ["p1"]

    def test_emptied_student_removed(self):
        problems = {"p0": make_problem(pid="p0")}
        seqs = [
            StudentSequence(student_id="s1", steps=[make_record(sid="s1", pid="p0", lines=2)]),
            StudentSequence(student_id="s2", steps=[make_record(sid="s2", pid="p0", lines=9)]),
        ]
        out, report = preprocess(Dataset(problems=problems, sequences=seqs))
        assert report.removed_empty_sequences == 1
        assert [s.student_id for s in out.sequences] == ["s2"]

    def test_idempotent(self, dataset):
        once, _ = preprocess(dataset)
        twice, report = preprocess(once)
        assert twice.sequences == once.sequences
        assert report.to_json() == {"dropped_short_process": 0,
                                    "dropped_missing_problem_text": 0,
                                    "removed_empty_sequences": 0}


def many_students(n):
    return [StudentSequence(student_id=f"s{i:03d}",
                            steps=[make_record(sid=f"s{i:03d}", pid="p0")])
            for i in range(n)]


class TestSplit:
    def test_default_fractions_on_100_students(self):
        train, val, test = split(many_students(100), seed=42,
                                 test_frac=0.2, val_frac=0.1)
        assert (len(train), len(val), len(test)) == (72, 8, 20)

    def test_partition_is_disjoint_and_complete(self):
        seqs = many_students(37)
        train, val, test = split(seqs, seed=0, test_frac=0.2, val_frac=0.1)
        ids = [s.student_id for fold in (train, val, test) for s in fold]
        assert sorted(ids) == sorted(s.student_id for s in seqs)
        assert len(set(ids)) == len(ids)

    def test_same_seed_same_split(self):
        seqs = many_students(50)
        a = split(seqs, seed=7, test_frac=0.2, val_frac=0.1)
        b = split(seqs, seed=7, test_frac=0.2, val_frac=0.1)
        assert [[s.student_id for s in fold] for fold in a] == \
               [[s.student_id for s in fold] for fold in b]

    def test_different_seed_differs(self):
        seqs = many_students(50)
        a = split(seqs, seed=1, test_frac=0.2, val_frac=0.1)
        b = split(seqs, seed=2, test_frac=0.2, val_frac=0.1)
        assert [s.student_id for s in a[2]] != [s.student_id for s in b[2]]

    def test_too_few_students(self):
        with pytest.raises(SplitError):
            split(many_students(2), seed=0, test_frac=0.2, val_frac=0.1)

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            split(many_students(10), seed=0, test_frac=0.0, val_frac=0.1)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(min_value=3, max_value=200),
           seed=st.integers(min_value=0, max_value=2**31),
           test_frac=st.floats(min_value=0.05, max_value=0.6),
           val_frac=st.floats(min_value=0.05, max_value=0.6))
    def test_every_fold_nonempty(self, n, seed, test_frac, val_frac):
        train, val, test = split(many_students(n), seed, test_frac, val_frac)
        assert train and val and test
        assert len(train) + len(val) + len(test) == n


class TestBatches:
    def test_vocab_indices_are_sorted_and_one_based(self):
        problems = {p: make_problem(pid=p, kc_ids=[k])
                    for p, k in [("pb", "k2"), ("pa", "k1"), ("pc", "k1")]}
        vocab = Vocab.from_problems(problems)
        assert vocab.question_index == {"pa": 1, "pb": 2, "pc": 3}
        assert vocab.concept_index == {"k1": 1, "k2": 2}
        assert vocab.num_questions == 3 and vocab.num_concepts == 2

    def test_window_count_is_ceiling_of_length(self):
        problems = {"p0": make_problem(pid="p0")}
        vocab = Vocab.from_problems(problems)
        seqs = [
            StudentSequence(student_id="a", steps=[
                make_record(sid="a", pid="p0", timestamp=t) for t in range(200)]),
            StudentSequence(student_id="b", steps=[
                make_record(sid="b", pid="p0", timestamp=t) for t in range(450)]),
        ]
        batches = make_batches(seqs, problems, vocab, max_len=200, batch_size=16)
        assert len(batches) == 1
        valid = batches[0].valid_mask
        assert valid.shape == (4, 200)
        assert valid.sum(axis=1).tolist() == [200, 200, 200, 50]

    def test_batch_size_grouping(self):
        problems = {"p0": make_problem(pid="p0")}
        vocab = Vocab.from_problems(problems)
        seqs = [StudentSequence(student_id=f"s{i}",
                                steps=[make_record(sid=f"s{i}", pid="p0")])
                for i in range(5)]
        batches = make_batches(seqs, problems, vocab, max_len=4, batch_size=2)
        assert [b.valid_mask.shape[0] for b in batches] == [2, 2, 1]

    def test_batch_width_is_longest_window(self):
        problems = {"p0": make_problem(pid="p0")}
        vocab = Vocab.from_problems(problems)
        # windows of 3, 1 | 4, 2 | 2 steps at max_len 4, two to a batch
        seqs = [StudentSequence(student_id=f"s{i}", steps=[
            make_record(sid=f"s{i}", pid="p0", timestamp=t) for t in range(n)])
            for i, n in enumerate((3, 1, 6, 2))]
        batches = make_batches(seqs, problems, vocab, max_len=4, batch_size=2)
        assert [b.question_ids.shape for b in batches] == [(2, 3), (2, 4), (1, 2)]
        assert [b.valid_mask.sum(axis=1).tolist() for b in batches] == [[3, 1], [4, 2], [2]]
        for b in batches:
            for arr in (b.concept_ids, b.correctness, b.mp_inputs[..., 0], b.target_mask):
                assert arr.shape == b.valid_mask.shape

    def test_targets_are_next_step(self):
        problems = {f"p{i}": make_problem(pid=f"p{i}", kc_ids=[f"kc{i % 2}"]) for i in range(3)}
        vocab = Vocab.from_problems(problems)
        seqs = [StudentSequence(student_id=f"s{s}", steps=[
            make_record(sid=f"s{s}", pid=f"p{t % 3}", correct=(s + t) % 2, timestamp=t,
                        mp=None if (s + t) % 3 == 0 else MPRatios.from_counts(
                            {"CU": (t % 4, 4), "SC": (s, 3), "AR": (1, t + 1)}))
            for t in range(7)]) for s in range(3)]

        def expected(rec):
            """(correct, ratios, present bits) of target step ``rec``; None is padding."""
            if rec is None:
                return 0, [0.0] * 4, [0.0] * 4
            present = [rec.mp is not None and rec.mp.present[d] for d in DIMENSIONS]
            values = [rec.mp.values[d] if p else MP_IMPUTE for d, p in zip(DIMENSIONS, present)]
            return rec.correct, values, [float(p) for p in present]

        # 7 steps cut at max_len 2 and 3; whole at 7 and 10 (width 7)
        for max_len in (2, 3, 7, 10):
            [batch] = make_batches(seqs, problems, vocab, max_len=max_len, batch_size=16)
            windows = [seq.steps[i:i + max_len] for seq in seqs for i in range(0, 7, max_len)]
            T = min(max_len, 7)
            assert batch.question_ids.shape == (len(windows), T)
            for bi, steps in enumerate(windows):
                for t in range(T):
                    if t < len(steps):
                        assert batch.correctness[bi, t] == steps[t].correct
                    nxt = steps[t + 1] if t + 1 < len(steps) else None
                    correct, values, present = expected(nxt)
                    assert batch.target_mask[bi, t] == float(nxt is not None)
                    assert batch.targets_correct[bi, t] == correct
                    np.testing.assert_array_equal(batch.targets_mp[bi, t], values)
                    np.testing.assert_array_equal(batch.target_mp_mask[bi, t], present)

    def test_targets_follow_replaced_inputs(self, dataset):
        vocab = Vocab.from_problems(dataset.problems)
        [batch] = make_batches(dataset.sequences, dataset.problems, vocab,
                               max_len=10, batch_size=16)
        flipped = dataclasses.replace(batch, correctness=1 - batch.correctness)
        np.testing.assert_array_equal(flipped.targets_correct[:, :-1],
                                      1 - batch.correctness[:, 1:])

    def test_unknown_ids_are_all_listed(self, dataset):
        # p1 and p3 are the only problems of concept kc1
        vocab = Vocab.from_problems({pid: p for pid, p in dataset.problems.items()
                                     if pid not in ("p1", "p3")})
        with pytest.raises(ValidationError, match=r"problems \['p1', 'p3'\], concepts \['kc1'\]"):
            make_batches(dataset.sequences, dataset.problems, vocab, max_len=10)

    def test_window_boundary_has_no_target(self):
        problems = {"p0": make_problem(pid="p0")}
        vocab = Vocab.from_problems(problems)
        seqs = [StudentSequence(student_id="a", steps=[
            make_record(sid="a", pid="p0", timestamp=t) for t in range(6)])]
        [batch] = make_batches(seqs, problems, vocab, max_len=3, batch_size=16)
        # steps 0..2 and 3..5 become separate rows; step 2 -> 3 crosses the cut
        assert batch.target_mask[0].tolist() == [1.0, 1.0, 0.0]
        assert batch.target_mask[1].tolist() == [1.0, 1.0, 0.0]

    def test_absent_dimension_imputed_and_masked(self):
        problems = {"p0": make_problem(pid="p0")}
        vocab = Vocab.from_problems(problems)
        mp = MPRatios.from_counts({"CU": (1, 2), "SC": (3, 4), "PF": (1, 4)})
        seqs = [StudentSequence(student_id="a", steps=[
            make_record(sid="a", pid="p0", timestamp=1000, mp=mp),
            make_record(sid="a", pid="p0", timestamp=2000, mp=None),
        ])]
        [batch] = make_batches(seqs, problems, vocab, max_len=4, batch_size=16)
        np.testing.assert_array_equal(batch.mp_inputs[0, 0, :4], [0.5, 0.75, 0.25, 0.5])
        np.testing.assert_array_equal(batch.mp_inputs[0, 0, 4:], [1, 1, 1, 0])
        # unannotated step: all imputed, all masked out
        np.testing.assert_array_equal(batch.mp_inputs[0, 1, :4], [0.5] * 4)
        np.testing.assert_array_equal(batch.mp_inputs[0, 1, 4:], [0] * 4)
        # targets at position 0 describe step 1
        np.testing.assert_array_equal(batch.target_mp_mask[0, 0], [0] * 4)

    def test_mp_inputs_never_leak_the_target_step(self):
        problems = {"p0": make_problem(pid="p0")}
        vocab = Vocab.from_problems(problems)
        mp_a = MPRatios.from_counts({d: (1, 4) for d in ("CU", "SC", "PF", "AR")})
        mp_b = MPRatios.from_counts({d: (3, 4) for d in ("CU", "SC", "PF", "AR")})
        seqs = [StudentSequence(student_id="a", steps=[
            make_record(sid="a", pid="p0", timestamp=1000, mp=mp_a),
            make_record(sid="a", pid="p0", timestamp=2000, mp=mp_b),
        ])]
        [batch] = make_batches(seqs, problems, vocab, max_len=4, batch_size=16)
        np.testing.assert_array_equal(batch.mp_inputs[0, 0, :4], [0.25] * 4)
        np.testing.assert_array_equal(batch.targets_mp[0, 0], [0.75] * 4)

    def test_padding_is_zero_ids(self, dataset):
        vocab = Vocab.from_problems(dataset.problems)
        [batch] = make_batches(dataset.sequences, dataset.problems, vocab,
                               max_len=10, batch_size=16)
        pad = batch.valid_mask == 0
        assert (batch.question_ids[pad] == 0).all()
        assert (batch.concept_ids[pad] == 0).all()

    def test_max_len_lower_bound(self, dataset):
        vocab = Vocab.from_problems(dataset.problems)
        with pytest.raises(ValueError):
            make_batches(dataset.sequences, dataset.problems, vocab, max_len=1)


class TestShiftLeft:
    def test_shift(self):
        ids = np.array([[1, 2, 3], [4, 5, 6]])
        np.testing.assert_array_equal(shift_left(ids), [[2, 3, 0], [5, 6, 0]])
