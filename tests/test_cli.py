import csv
import json

import pytest

from prockt import cli
from prockt.cli import (
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    EXIT_VALIDATION,
    main,
    read_config_file,
    subseed,
)
from prockt.pipeline import MockChatClient

SIM = """
num_students = 12
num_problems = 10
num_concepts = 3
steps_per_student = 8
"""

TRAIN_FLAGS = ["--embed-dim", "8", "--max-len", "8", "--batch-size", "8",
               "--epochs", "2", "--patience", "2", "--lr", "5e-3"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synth -> extract-mp -> train chain shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    (root / "sim.cfg").write_text(SIM)
    assert main(["synth", "--config", str(root / "sim.cfg"),
                 "--out", str(root / "data")]) == EXIT_OK
    assert main(["extract-mp", "--data", str(root / "data"),
                 "--out", str(root / "annotated"),
                 "--cache", str(root / "cache"), "--client", "mock"]) == EXIT_OK
    assert main(["train", "--data", str(root / "annotated"),
                 "--out", str(root / "run")] + TRAIN_FLAGS) == EXIT_OK
    return root


def _float_counts(text: str) -> str:
    """Every record's CU counts as floats, such as [2.0, 3.0]."""
    docs = [json.loads(line) for line in text.splitlines()]
    for doc in docs:
        doc["mp"]["counts"]["CU"] = [float(n) for n in doc["mp"]["counts"]["CU"]]
    return "".join(json.dumps(doc) + "\n" for doc in docs)


def _every_record(key, value):
    """An edit of ``interactions.jsonl`` that sets ``key`` to ``value`` in every record."""
    return lambda text: "".join(json.dumps({**json.loads(line), key: value}) + "\n"
                                for line in text.splitlines())


def _every_problem(key, value):
    """An edit of ``problems.json`` that sets ``key`` to ``value`` in every problem."""
    return lambda text: json.dumps([{**doc, key: value} for doc in json.loads(text)])


class TestHelpers:
    def test_read_config_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("a = 1\n# comment\n\nb = two # trailing\n")
        assert read_config_file(path) == {"a": "1", "b": "two"}

    def test_read_config_file_rejects_bad_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("just words\n")
        with pytest.raises(Exception, match="key = value"):
            read_config_file(path)

    def test_subseed_is_stable_and_name_sensitive(self):
        assert subseed(42, "split") == subseed(42, "split")
        assert subseed(42, "split") != subseed(42, "init")
        assert subseed(42, "split") != subseed(43, "split")


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_argument(self, capsys):
        assert main(["train", "--out", "x"]) == EXIT_USAGE

    def test_missing_data_directory(self, tmp_path, capsys):
        assert main(["train", "--data", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "run")]) == EXIT_USAGE

    def test_unknown_simulator_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("numb_students = 5\n")
        assert main(["synth", "--config", str(cfg),
                     "--out", str(tmp_path / "d")]) == EXIT_USAGE

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_bad_simulator_value_is_a_validation_error(self, value, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"num_students = {value}\n")
        assert main(["synth", "--config", str(cfg),
                     "--out", str(tmp_path / "d")]) == EXIT_VALIDATION
        assert "num_students" in capsys.readouterr().err

    def test_too_few_students_is_a_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("num_students = 2\nnum_problems = 5\n"
                       "num_concepts = 2\nsteps_per_student = 6\n")
        assert main(["synth", "--config", str(cfg),
                     "--out", str(tmp_path / "d")]) == EXIT_OK
        assert main(["train", "--data", str(tmp_path / "d"),
                     "--out", str(tmp_path / "run")] + TRAIN_FLAGS) == EXIT_VALIDATION

    def test_corrupt_dataset_is_a_validation_error(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "problems.json").write_text(
            (workspace / "data" / "problems.json").read_text())
        lines = (workspace / "data" / "interactions.jsonl").read_text().splitlines()
        doc = json.loads(lines[0])
        doc["correct"] = 7
        (data / "interactions.jsonl").write_text(json.dumps(doc) + "\n")
        assert main(["train", "--data", str(data),
                     "--out", str(tmp_path / "run")] + TRAIN_FLAGS) == EXIT_VALIDATION

    @pytest.mark.parametrize("file, edit", [
        ("problems.json", lambda text: "not json"),
        ("problems.json", lambda text: json.dumps(
            [{k: v for k, v in doc.items() if k != "kc_ids"} for doc in json.loads(text)])),
        ("interactions.jsonl", lambda text: "".join(
            json.dumps({**json.loads(line), "timestamp": "abc"}) + "\n"
            for line in text.splitlines())),
        ("interactions.jsonl", _float_counts),
        ("interactions.jsonl", _every_record("correct", True)),
        ("interactions.jsonl", _every_record("correct", 1.0)),
        ("interactions.jsonl", _every_record("timestamp", 1.5)),
        ("interactions.jsonl", _every_record("timestamp", "1700000000000")),
        ("problems.json", lambda text: json.dumps(
            [{**doc, "difficulty": 3.7} for doc in json.loads(text)])),
        ("interactions.jsonl", _every_record("student_id", 7)),
        ("interactions.jsonl", _every_record("problem_id", 3)),
        ("interactions.jsonl", _every_record("selected_answer", 2)),
        ("interactions.jsonl", _every_record("process_text", ["a"])),
        ("problems.json", _every_problem("text", 5)),
        ("problems.json", _every_problem("kc_ids", [1])),
        ("interactions.jsonl", _every_record("duration", True)),
        ("interactions.jsonl", _every_record("duration", float("inf"))),
        ("interactions.jsonl", _every_record("duration", float("nan"))),
    ], ids=["problems-not-json", "problem-without-kc-ids", "non-integer-timestamp",
            "float-counts", "bool-correct", "float-correct", "float-timestamp",
            "string-timestamp", "float-difficulty", "int-student-id", "int-problem-id",
            "int-selected-answer", "list-process-text", "int-problem-text", "int-kc-id",
            "bool-duration", "infinite-duration", "nan-duration"])
    def test_malformed_dataset_names_the_file(self, workspace, tmp_path, capsys, file, edit):
        data = tmp_path / "data"
        data.mkdir()
        for name in ("problems.json", "interactions.jsonl"):
            text = (workspace / "data" / name).read_text()
            (data / name).write_text(edit(text) if name == file else text)
        assert main(["train", "--data", str(data),
                     "--out", str(tmp_path / "run")] + TRAIN_FLAGS) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert str(data / file) in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "extract-mp"])
    def test_non_utf8_interactions_name_the_file_and_line(self, workspace, tmp_path, capsys,
                                                          command):
        data = tmp_path / "data"
        data.mkdir()
        (data / "problems.json").write_text((workspace / "data" / "problems.json").read_text())
        lines = (workspace / "data" / "interactions.jsonl").read_bytes().splitlines(keepends=True)
        lines[1] = lines[1].replace(b'"student_id"', b'"student_id\xff"', 1)
        (data / "interactions.jsonl").write_bytes(b"".join(lines))
        out = str(tmp_path / "out")
        args = {"train": ["--out", out] + TRAIN_FLAGS,
                "extract-mp": ["--out", out, "--cache", str(tmp_path / "cache"),
                               "--client", "mock"]}
        assert main([command, "--data", str(data)] + args[command]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"{data / 'interactions.jsonl'}: malformed record at line 2" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("file, edit", [
        ("interactions.jsonl", _every_record("selected_answer", 2)),
        ("problems.json", _every_problem("text", 5)),
    ], ids=["int-selected-answer", "int-problem-text"])
    def test_extract_mp_rejects_a_non_string_field(self, workspace, tmp_path, capsys, file,
                                                   edit):
        # the first ended with a TypeError traceback, the second failed every
        # interaction without a word
        data = tmp_path / "data"
        data.mkdir()
        for name in ("problems.json", "interactions.jsonl"):
            text = (workspace / "data" / name).read_text()
            (data / name).write_text(edit(text) if name == file else text)
        assert main(["extract-mp", "--data", str(data), "--out", str(tmp_path / "out"),
                     "--cache", str(tmp_path / "cache"), "--client", "mock"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert str(data / file) in err and "Traceback" not in err

    def test_non_utf8_config_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_bytes(b"num_students = 12\n# caf\xe9\n")
        assert main(["synth", "--config", str(cfg),
                     "--out", str(tmp_path / "d")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"{cfg}: not UTF-8 text" in err and "Traceback" not in err

    def test_malformed_checkpoint_names_the_file(self, workspace, tmp_path, capsys):
        ckpt = tmp_path / "checkpoint.json"
        ckpt.write_text(json.dumps({"foo": 1}))
        assert main(["eval", "--checkpoint", str(ckpt),
                     "--data", str(workspace / "annotated")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert str(ckpt) in err and "Traceback" not in err

    @pytest.mark.parametrize("command, flag, value", [
        ("train", "--batch-size", "0"), ("train", "--epochs", "0"),
        ("train", "--patience", "0"), ("train", "--max-len", "1"),
        ("eval", "--batch-size", "0"), ("extract-mp", "--concurrency", "0"),
        ("extract-mp", "--max-retries", "0"), ("train", "--test-frac", "1.5"),
        ("train", "--val-frac", "0"), ("train", "--alpha", "-1"), ("train", "--lr", "-1"),
        ("train", "--lr", "0"), ("train", "--embed-dim", "0")])
    def test_bad_numeric_flag_is_a_validation_error(self, command, flag, value,
                                                     tmp_path, capsys):
        # the flag is rejected before any of these paths is opened
        d = str(tmp_path / "missing")
        required = {"train": ["--data", d, "--out", d],
                    "eval": ["--checkpoint", d, "--data", d],
                    "extract-mp": ["--data", d, "--out", d, "--cache", d]}
        assert main([command] + required[command] + [flag, value]) == EXIT_VALIDATION
        assert flag in capsys.readouterr().err


class TestSynth:
    def test_outputs_and_manifest(self, workspace):
        data = workspace / "data"
        assert (data / "problems.json").exists()
        assert (data / "interactions.jsonl").exists()
        manifest = json.loads((data / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["config"]["num_students"] == 12
        assert str(workspace / "sim.cfg") in manifest["input_hashes"]

    def test_deterministic(self, workspace, tmp_path, capsys):
        assert main(["synth", "--config", str(workspace / "sim.cfg"),
                     "--out", str(tmp_path / "again")]) == EXIT_OK
        assert (tmp_path / "again" / "interactions.jsonl").read_text() == \
               (workspace / "data" / "interactions.jsonl").read_text()


class TestExtractMP:
    def test_all_records_annotated(self, workspace):
        report = json.loads((workspace / "annotated" / "pipeline_report.json").read_text())
        assert report["annotated"] == 96 and report["failed"] == 0
        for line in (workspace / "annotated" / "interactions.jsonl").read_text().splitlines():
            assert json.loads(line).get("mp") is not None

    def test_warm_cache_rerun(self, workspace, tmp_path, capsys):
        assert main(["extract-mp", "--data", str(workspace / "data"),
                     "--out", str(tmp_path / "annotated2"),
                     "--cache", str(workspace / "cache"), "--client", "mock"]) == EXIT_OK
        report = json.loads((tmp_path / "annotated2" / "pipeline_report.json").read_text())
        assert report["cached"] == 96

    def test_manifest_records_every_flag_and_the_model(self, workspace, tmp_path,
                                                        monkeypatch, capsys):
        class NamedClient(MockChatClient):
            model = "teacher-1"

        monkeypatch.setattr(cli, "HttpChatClient", NamedClient)
        data, out, cache = (str(workspace / "data"), str(tmp_path / "out"),
                            str(tmp_path / "cache"))
        assert main(["extract-mp", "--data", data, "--out", out, "--cache", cache,
                     "--client", "http", "--concurrency", "2", "--max-retries", "5"]) == EXIT_OK
        config = json.loads((tmp_path / "out" / "manifest.json").read_text())["config"]
        assert config == {"command": "extract-mp", "data": data, "out": out, "cache": cache,
                          "client": "http", "concurrency": 2, "max_retries": 5,
                          "func": None, "model": "teacher-1"}


class TestTrainEvalReport:
    def test_train_artifacts(self, workspace):
        run = workspace / "run"
        metrics = json.loads((run / "metrics.json").read_text())
        assert set(metrics) == {"variant", "backbone", "lr", "dropout", "alpha",
                                "val_auc", "val_acc", "test_auc", "test_acc",
                                "epochs_trained"}
        assert 0.0 <= metrics["test_auc"] <= 1.0
        ckpt = json.loads((run / "checkpoint.json").read_text())
        assert "model_config" in ckpt["meta"] and "vocab" in ckpt["meta"]
        with open(run / "history.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "train_loss", "val_auc", "val_acc"]
        assert len(rows) - 1 == metrics["epochs_trained"]
        assert (run / "manifest.json").exists()

    def test_train_is_deterministic(self, workspace, tmp_path, capsys):
        assert main(["train", "--data", str(workspace / "annotated"),
                     "--out", str(tmp_path / "run2")] + TRAIN_FLAGS) == EXIT_OK
        again = json.loads((tmp_path / "run2" / "metrics.json").read_text())
        first = json.loads((workspace / "run" / "metrics.json").read_text())
        assert again == first

    def test_eval_checkpoint(self, workspace, tmp_path, capsys):
        out = tmp_path / "eval.json"
        assert main(["eval", "--checkpoint", str(workspace / "run" / "checkpoint.json"),
                     "--data", str(workspace / "annotated"),
                     "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert {"auc", "acc", "n_predictions"} <= set(doc)
        assert doc["n_predictions"] > 0

    def test_eval_on_unknown_ids_lists_them(self, workspace, tmp_path, capsys):
        data = tmp_path / "renamed"
        data.mkdir()
        # every problem and concept id gets a name the checkpoint has never seen
        for name in ("problems.json", "interactions.jsonl"):
            text = (workspace / "annotated" / name).read_text()
            (data / name).write_text(text.replace('"p0', '"q0').replace('"kc0', '"kd0'))
        assert main(["eval", "--checkpoint", str(workspace / "run" / "checkpoint.json"),
                     "--data", str(data)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        for line in (data / "interactions.jsonl").read_text().splitlines():
            assert repr(json.loads(line)["problem_id"]) in err
        assert "'kd0" in err

    def test_report_table(self, workspace, tmp_path, capsys):
        out = tmp_path / "report.md"
        assert main(["report", "--runs", str(workspace / "run"),
                     "--out", str(out)]) == EXIT_OK
        table = out.read_text()
        assert "| Backbone |" in table
        assert "| recurrent |" in table


class TestGradcheck:
    def test_passes_with_exit_zero(self, capsys):
        assert main(["gradcheck", "--seeds", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "composite loss" in out
        assert "FAIL" not in out
