import numpy as np
import pytest

from prockt.data import count_process_lines, load_dataset, preprocess, save_dataset
from prockt.synth import SimConfig, generate


def tiny(**kw):
    kw.setdefault("num_students", 20)
    kw.setdefault("num_problems", 40)
    kw.setdefault("num_concepts", 6)
    kw.setdefault("steps_per_student", 15)
    return SimConfig(**kw)


class TestConfig:
    def test_probability_fields_validated(self):
        with pytest.raises(ValueError):
            tiny(guess=1.5)
        with pytest.raises(ValueError):
            tiny(slip=-0.1)

    def test_counts_must_be_positive(self):
        with pytest.raises(ValueError):
            tiny(num_students=0)


class TestGenerate:
    def test_bit_identical_for_same_config(self):
        a = generate(tiny(seed=5))
        b = generate(tiny(seed=5))
        assert [p.to_json() for p in a.problems.values()] == \
               [p.to_json() for p in b.problems.values()]
        for sa, sb in zip(a.sequences, b.sequences):
            assert [r.to_json() for r in sa.steps] == [r.to_json() for r in sb.steps]

    def test_different_seed_differs(self):
        a = generate(tiny(seed=1))
        b = generate(tiny(seed=2))
        assert [r.correct for r in a.sequences[0].steps] != \
               [r.correct for r in b.sequences[0].steps]

    def test_shape_of_output(self):
        data = generate(tiny())
        assert len(data.problems) == 40
        assert len(data.sequences) == 20
        assert all(len(seq.steps) == 15 for seq in data.sequences)
        for seq in data.sequences:
            assert all(r.student_id == seq.student_id for r in seq.steps)
            ts = [r.timestamp for r in seq.steps]
            assert ts == sorted(ts)

    def test_round_trips_through_loader_and_preprocess(self, tmp_path):
        data = generate(tiny())
        save_dataset(tmp_path, data)
        loaded = load_dataset(tmp_path)
        assert loaded.num_interactions() == data.num_interactions()
        clean, report = preprocess(loaded)
        # simulator output is already clean: nothing to drop
        assert clean.num_interactions() == data.num_interactions()
        assert report.to_json() == {"dropped_short_process": 0,
                                    "dropped_missing_problem_text": 0,
                                    "removed_empty_sequences": 0}

    def test_process_text_length(self):
        data = generate(tiny())
        for seq in data.sequences:
            for rec in seq.steps:
                assert 5 <= count_process_lines(rec.process_text) <= 8

    def test_marginal_correctness_rate_inside_guess_slip_band(self):
        config = SimConfig(num_students=200, num_problems=100, num_concepts=10,
                           steps_per_student=30, seed=11)
        data = generate(config)
        rate = np.mean([r.correct for s in data.sequences for r in s.steps])
        assert config.guess < rate < 1.0 - config.slip

    def test_ratios_are_small_denominator_fractions(self):
        data = generate(tiny())
        for seq in data.sequences:
            for rec in seq.steps:
                assert rec.mp is not None
                for d in ("CU", "SC", "PF", "AR"):
                    assert rec.mp.present[d]
                    k, n = rec.mp.counts[d]
                    assert 2 <= n <= 6 and 0 <= k <= n
                    assert rec.mp.values[d] == k / n

    def test_selected_answer_consistent_with_correctness(self):
        data = generate(tiny())
        for seq in data.sequences:
            for rec in seq.steps:
                answer = data.problems[rec.problem_id].answer
                assert (rec.selected_answer == answer) == bool(rec.correct)

    def test_ratios_predict_next_correctness_on_same_concept(self):
        # noiseless ratios are a direct read of mastery, so across
        # consecutive same-concept steps they should correlate clearly
        # with whether the next answer is right
        config = SimConfig(num_students=300, num_problems=500, num_concepts=40,
                           steps_per_student=50, mp_noise_sd=0.0, seed=7)
        data = generate(config)
        concept = {pid: p.kc_ids[0] for pid, p in data.problems.items()}
        xs, ys = [], []
        for seq in data.sequences:
            for a, b in zip(seq.steps, seq.steps[1:]):
                if concept[a.problem_id] == concept[b.problem_id]:
                    xs.append(np.mean([a.mp.values[d]
                                       for d in ("CU", "SC", "PF", "AR")]))
                    ys.append(b.correct)
        r = np.corrcoef(xs, ys)[0, 1]
        assert r > 0.3
