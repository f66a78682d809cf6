import csv
import json
import platform
import subprocess
import sys
from pathlib import Path

import numpy
import pytest
import scipy

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
from prockt.data import DIMENSIONS, load_dataset, split
from prockt.models import build_model
from prockt.pipeline import MockChatClient, ratio_agreement
from prockt.training import grid_search

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

    def test_import_loads_no_scipy_stats(self):
        # scipy.stats costs every process about 50 MB and most of a second
        # to import; only scipy.sparse is needed
        src = str(Path(cli.__file__).parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r}); import prockt.cli; "
                "sys.exit('scipy.stats' in sys.modules)")
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0

    def test_import_loads_no_requests(self):
        # only --client http sends requests; the mock and every other command
        # do not need the 4-5 MB it costs
        src = str(Path(cli.__file__).parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r}); import prockt.cli; "
                "sys.exit('requests' in sys.modules)")
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0


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

    @pytest.mark.parametrize("key, value", [("learn_rate", "nan"), ("discrimination", "inf"),
                                            ("guess", "-inf"), ("difficulty_sd", "nan")])
    def test_non_finite_simulator_float_is_a_validation_error(self, key, value, tmp_path,
                                                              capsys):
        # nan learn_rate ended in a traceback; inf discrimination wrote a dataset
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SIM + f"{key} = {value}\n")
        assert main(["synth", "--config", str(cfg),
                     "--out", str(tmp_path / "d")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert key in err and "finite" in err and "Traceback" not in err
        assert not (tmp_path / "d").exists()

    def test_too_few_students_is_a_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("num_students = 2\nnum_problems = 5\n"
                       "num_concepts = 2\nsteps_per_student = 6\n")
        assert main(["synth", "--config", str(cfg),
                     "--out", str(tmp_path / "d")]) == EXIT_OK
        assert main(["train", "--data", str(tmp_path / "d"),
                     "--out", str(tmp_path / "run")] + TRAIN_FLAGS) == EXIT_VALIDATION

    def test_single_step_students_name_the_split(self, workspace, tmp_path, capsys):
        # one-step students give no next step to predict, and so no metric
        cfg = tmp_path / "one.cfg"
        cfg.write_text(SIM.replace("steps_per_student = 8", "steps_per_student = 1"))
        data = tmp_path / "data"
        assert main(["synth", "--config", str(cfg), "--out", str(data)]) == EXIT_OK
        assert main(["train", "--data", str(data),
                     "--out", str(tmp_path / "run")] + TRAIN_FLAGS) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "the train split has no next step to predict" in err
        assert "Traceback" not in err and not (tmp_path / "run").exists()
        assert main(["eval", "--checkpoint", str(workspace / "run" / "checkpoint.json"),
                     "--data", str(data)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"{data} has no next step to predict" in err and "Traceback" not in err

    @pytest.mark.parametrize("fold, name", [(1, "val"), (2, "test")], ids=["val", "test"])
    def test_a_split_of_single_step_students_is_named(self, workspace, tmp_path, capsys,
                                                      fold, name):
        # cut every student of one split to its first interaction
        src = workspace / "data"
        students = {seq.student_id for seq in
                    split(load_dataset(src).sequences, subseed(42, "split"), 0.2, 0.1)[fold]}
        data = tmp_path / "data"
        data.mkdir()
        (data / "problems.json").write_text((src / "problems.json").read_text())
        kept, seen = [], set()
        for line in (src / "interactions.jsonl").read_text().splitlines(keepends=True):
            sid = json.loads(line)["student_id"]
            if sid not in students or sid not in seen:
                kept.append(line)
                seen.add(sid)
        (data / "interactions.jsonl").write_text("".join(kept))
        assert main(["train", "--data", str(data),
                     "--out", str(tmp_path / "run")] + TRAIN_FLAGS) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"the {name} split has no next step to predict" in err and "Traceback" not in err

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
        ("problems.json", _every_problem("kc_ids", "algebra")),
        ("problems.json", _every_problem("kc_ids", {"a": 1})),
        ("problems.json", _every_problem("options", "abc")),
        ("interactions.jsonl", _every_record("duration", True)),
        ("interactions.jsonl", _every_record("duration", float("inf"))),
        ("interactions.jsonl", _every_record("duration", float("nan"))),
    ], ids=["problems-not-json", "problem-without-kc-ids", "non-integer-timestamp",
            "float-counts", "bool-correct", "float-correct", "float-timestamp",
            "string-timestamp", "float-difficulty", "int-student-id", "int-problem-id",
            "int-selected-answer", "list-process-text", "int-problem-text", "int-kc-id",
            "string-kc-ids", "object-kc-ids", "string-options",
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

    @pytest.mark.parametrize("command", ["train", "extract-mp"])
    @pytest.mark.parametrize("file", ["interactions.jsonl", "problems.json"])
    def test_lone_surrogate_names_the_file_and_line(self, workspace, tmp_path, capsys,
                                                    command, file):
        # extract-mp ended with exit 3 and a UnicodeEncodeError traceback, and train
        # exited 0: such a string can be neither keyed nor sent as UTF-8
        data = tmp_path / "data"
        data.mkdir()
        for name in ("problems.json", "interactions.jsonl"):
            (data / name).write_text((workspace / "data" / name).read_text())
        if file == "interactions.jsonl":
            lines = (data / file).read_text().splitlines(keepends=True)
            doc = json.loads(lines[1])
            lines[1] = json.dumps({**doc, "process_text": doc["process_text"] + "\ud800"}) + "\n"
            (data / file).write_text("".join(lines))
            where = f"{data / file}: malformed record at line 2: "
        else:
            docs = json.loads((data / file).read_text())
            docs[3]["text"] = "\udc00" + docs[3]["text"]
            (data / file).write_text(json.dumps(docs))
            where = f"{data / file}: malformed problems: "
        out = str(tmp_path / "out")
        args = {"train": ["--out", out] + TRAIN_FLAGS,
                "extract-mp": ["--out", out, "--cache", str(tmp_path / "cache"),
                               "--client", "mock"]}
        assert main([command, "--data", str(data)] + args[command]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert where + "ValueError: a string holds the lone surrogate" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("file, edit", [
        ("interactions.jsonl", _every_record("selected_answer", 2)),
        ("problems.json", _every_problem("text", 5)),
        ("problems.json", _every_problem("answer", None)),
        ("problems.json", _every_problem("answer", 1.5)),
        ("problems.json", _every_problem("solution_text", [1])),
    ], ids=["int-selected-answer", "int-problem-text", "null-answer", "float-answer",
            "list-solution-text"])
    def test_extract_mp_rejects_a_non_string_field(self, workspace, tmp_path, capsys, file,
                                                   edit):
        # the first ended with a TypeError traceback, the second failed every
        # interaction without a word, and the last three were annotated and
        # written back with exit 0
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

    @pytest.mark.parametrize("edit", [
        lambda doc: "{bad",
        lambda doc: json.dumps([doc]),
        lambda doc: json.dumps({**doc, "test_auc": "x"}),
        lambda doc: json.dumps({**doc, "test_acc": None}),
        lambda doc: json.dumps({k: v for k, v in doc.items() if k != "test_acc"}),
        lambda doc: json.dumps({**doc, "backbone": ["x"]}),
        lambda doc: json.dumps({**doc, "backbone": 1}),
        lambda doc: json.dumps({**doc, "variant": None}),
    ], ids=["not-json", "not-an-object", "string-test-auc", "null-test-acc",
            "missing-test-acc", "list-backbone", "int-backbone-beside-a-string-one",
            "null-variant"])
    def test_bad_run_metrics_names_the_file(self, workspace, tmp_path, capsys, edit):
        good = (workspace / "run" / "metrics.json").read_text()
        # a valid run beside the bad one, read first: an int backbone used
        # to fail only when sorted against this string one
        (tmp_path / "good").mkdir()
        (tmp_path / "good" / "metrics.json").write_text(good)
        metrics = tmp_path / "run" / "metrics.json"
        metrics.parent.mkdir()
        metrics.write_text(edit(json.loads(good)))
        assert main(["report", "--runs", str(tmp_path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert str(metrics) in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["eval", "train"],
                             ids=["eval---checkpoint-DIR", "train---data-FILE"])
    def test_path_of_the_wrong_kind_is_a_usage_error(self, workspace, tmp_path, capsys,
                                                     command):
        # like a missing path: the checkpoint is a directory, the data a file
        args = {"eval": ["--checkpoint", str(workspace / "run"),
                         "--data", str(workspace / "annotated")],
                "train": ["--data", str(workspace / "run" / "metrics.json"),
                          "--out", str(tmp_path / "run")] + TRAIN_FLAGS}
        assert main([command] + args[command]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "Traceback" not in err

    @pytest.mark.parametrize("command, flag", [
        ("synth", "--out"), ("extract-mp", "--out"), ("extract-mp", "--cache"),
        ("train", "--out")])
    @pytest.mark.parametrize("where", ["itself", "parent"])
    def test_a_file_in_place_of_a_directory_is_a_usage_error(self, workspace, tmp_path,
                                                             capsys, command, flag, where):
        # rejected before any input is read, so nothing is written anywhere
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        bad = afile if where == "itself" else afile / "sub" / "dir"
        paths = {"--out": str(tmp_path / "out"), "--cache": str(tmp_path / "cache"),
                 flag: str(bad)}
        args = {"synth": ["--out", paths["--out"]],
                "extract-mp": ["--data", str(workspace / "data"), "--out", paths["--out"],
                               "--cache", paths["--cache"]],
                "train": ["--data", str(workspace / "annotated"),
                          "--out", paths["--out"]] + TRAIN_FLAGS}
        assert main([command] + args[command]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith(f"usage error: {flag} {bad}: {afile} is not a directory")
        assert "Traceback" not in captured.err and captured.out == ""
        assert sorted(tmp_path.iterdir()) == [afile] and afile.read_text() == "kept\n"

    @pytest.mark.parametrize("command", ["eval", "report"])
    @pytest.mark.parametrize("where", ["itself", "parent"])
    def test_an_out_file_that_cannot_be_written_is_a_usage_error(self, workspace, tmp_path,
                                                                capsys, monkeypatch,
                                                                command, where):
        # a directory given as the file, or a file where a parent directory should
        # be, is rejected before any input is read: nothing is evaluated
        evaluated = []
        monkeypatch.setattr(cli, "evaluate", lambda *args: evaluated.append(args))
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        bad = workspace if where == "itself" else afile / "sub" / "out.json"
        args = {"eval": ["--checkpoint", str(workspace / "run" / "checkpoint.json"),
                         "--data", str(workspace / "annotated")],
                "report": ["--runs", str(workspace / "run")]}
        assert main([command, *args[command], "--out", str(bad)]) == EXIT_USAGE
        captured = capsys.readouterr()
        reason = "is a directory" if where == "itself" else f"{afile} is not a directory"
        assert captured.err.startswith(f"usage error: --out {bad}: {reason}")
        assert "Traceback" not in captured.err and captured.out == ""
        assert evaluated == [] and afile.read_text() == "kept\n"

    def test_non_finite_loss_is_a_runtime_error(self, workspace, tmp_path, capsys,
                                                monkeypatch):
        def poisoned(config):
            model = build_model(config)
            model.params["head.bias"].data[:] = numpy.nan
            return model

        monkeypatch.setattr(cli, "build_model", poisoned)
        out = tmp_path / "run"
        assert main(["train", "--data", str(workspace / "annotated"),
                     "--out", str(out)] + TRAIN_FLAGS) == EXIT_RUNTIME
        captured = capsys.readouterr()
        assert "error: non-finite loss at epoch 1, batch " in captured.err
        assert captured.out == "" and not out.exists()

    def test_http_client_without_endpoint_is_a_validation_error(self, workspace, tmp_path,
                                                                capsys, monkeypatch):
        monkeypatch.delenv("PROCKT_CHAT_ENDPOINT", raising=False)
        # a missing --data would be a usage error: the client is built first
        assert main(["extract-mp", "--data", str(tmp_path / "missing"), "--client", "http",
                     "--out", str(tmp_path / "out"),
                     "--cache", str(tmp_path / "cache")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error: --client http:")
        assert "PROCKT_CHAT_ENDPOINT" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_checkpoint_with_a_parameter_per_head_names_the_fused_ones(self, workspace,
                                                                      tmp_path, capsys):
        # the layout before the heads were one weight and one bias: a (2d, 1)
        # weight and a (1,) bias for each of them
        doc = json.loads((workspace / "run" / "checkpoint.json").read_text())
        w, b = doc["params"].pop("head.weight"), doc["params"].pop("head.bias")
        columns = numpy.reshape(w["data"], w["shape"]).T
        for j, name in enumerate(["correct"] + [f"mp.{d}" for d in DIMENSIONS]):
            doc["params"][f"head.{name}.weight"] = {"shape": [w["shape"][0], 1],
                                                    "data": columns[j].tolist()}
            doc["params"][f"head.{name}.bias"] = {"shape": [1], "data": [b["data"][j]]}
        ckpt = tmp_path / "checkpoint.json"
        ckpt.write_text(json.dumps(doc))
        assert main(["eval", "--checkpoint", str(ckpt),
                     "--data", str(workspace / "annotated")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert str(ckpt) in err and "Traceback" not in err
        assert "checkpoint missing parameters: ['head.bias', 'head.weight']" in err

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_report_runs_not_a_directory_is_a_usage_error(self, workspace, tmp_path, capsys,
                                                          kind):
        runs = tmp_path / "nope" if kind == "missing" else workspace / "run" / "metrics.json"
        assert main(["report", "--runs", str(runs)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert str(runs) in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command, flag, value", [
        ("train", "--batch-size", "0"), ("train", "--epochs", "0"),
        ("train", "--patience", "0"), ("train", "--max-len", "1"),
        ("eval", "--batch-size", "0"), ("extract-mp", "--concurrency", "0"),
        ("extract-mp", "--max-retries", "0"), ("train", "--test-frac", "1.5"),
        ("train", "--val-frac", "0"), ("train", "--alpha", "-1"), ("train", "--lr", "-1"),
        ("train", "--lr", "0"), ("train", "--embed-dim", "0"), ("gradcheck", "--seeds", "0")])
    def test_bad_numeric_flag_is_a_validation_error(self, command, flag, value,
                                                     tmp_path, capsys):
        # the flag is rejected before any of these paths is opened
        d = str(tmp_path / "missing")
        required = {"train": ["--data", d, "--out", d],
                    "eval": ["--checkpoint", d, "--data", d],
                    "extract-mp": ["--data", d, "--out", d, "--cache", d],
                    "gradcheck": []}
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
        cold = json.loads((workspace / "annotated" / "pipeline_report.json").read_text())
        assert report["agreement"] == cold["agreement"]
        assert (tmp_path / "annotated2" / "interactions.jsonl").read_bytes() == \
            (workspace / "annotated" / "interactions.jsonl").read_bytes()

    def test_report_scores_the_input_ratios(self, workspace):
        # synth records carry the simulator's ratios, which the extracted ones are scored against
        report = json.loads((workspace / "annotated" / "pipeline_report.json").read_text())
        block = ratio_agreement(load_dataset(workspace / "data"),
                                load_dataset(workspace / "annotated"))
        assert list(report["agreement"]) == list(DIMENSIONS)
        assert report["agreement"] == json.loads(json.dumps(block))
        assert all(0 < doc["n"] <= 96 and 0.0 <= doc["presence"] <= 1.0
                   for doc in block.values())
        assert set(report) == {"annotated", "failed", "cached", "failure_rate", "failures",
                               "agreement"}

    def test_input_without_ratios_gets_no_agreement(self, workspace, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        (data / "problems.json").write_bytes((workspace / "data" / "problems.json").read_bytes())
        (data / "interactions.jsonl").write_text(
            _every_record("mp", None)((workspace / "data" / "interactions.jsonl").read_text()))
        assert main(["extract-mp", "--data", str(data), "--out", str(tmp_path / "out"),
                     "--cache", str(workspace / "cache"), "--client", "mock"]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "pipeline_report.json").read_text())
        assert "agreement" not in report and report["cached"] == 96

    def test_mock_is_named_and_annotates_as_the_unnamed_mock(self, workspace, tmp_path,
                                                             monkeypatch):
        # naming the mock moves its cache keys, not one byte of what it annotates
        config = json.loads((workspace / "annotated" / "manifest.json").read_text())["config"]
        assert config["model"] == MockChatClient.model == "mock-1"

        class Unnamed(MockChatClient):
            model = ""  # keyed as the mock was before it had a name

        monkeypatch.setattr(cli, "MockChatClient", Unnamed)
        assert main(["extract-mp", "--data", str(workspace / "data"),
                     "--out", str(tmp_path / "out"), "--cache", str(tmp_path / "cache"),
                     "--client", "mock"]) == EXIT_OK
        assert (tmp_path / "out" / "interactions.jsonl").read_bytes() == \
            (workspace / "annotated" / "interactions.jsonl").read_bytes()

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
        versions = json.loads((run / "manifest.json").read_text())["versions"]
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert versions == {"python": platform.python_version(),
                            "numpy": numpy.__version__, "scipy": scipy.__version__,
                            "blas": f"{blas['name']} {blas['version']}"}
        assert blas["name"] and blas["version"]  # the BLAS build numpy links

    def test_grid_writes_one_row_per_cell(self, workspace, tmp_path, monkeypatch, capsys):
        # a 2 x 2 grid in place of the 16 default cells; the rows must be
        # grid_search's own table, in its order, and a second run the same bytes
        tables = []

        def recording_grid_search(*args):
            result = grid_search(*args)
            tables.append(result.table)
            return result

        monkeypatch.setattr(cli, "GRID", ((5e-3, 0.0), (5e-3, 0.2), (1e-3, 0.0), (1e-3, 0.2)))
        monkeypatch.setattr(cli, "grid_search", recording_grid_search)
        for run in ("grid", "grid2"):
            assert main(["train", "--data", str(workspace / "annotated"), "--grid",
                         "--out", str(tmp_path / run)] + TRAIN_FLAGS) == EXIT_OK
        with open(tmp_path / "grid" / "grid.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["lr", "dropout", "val_auc", "val_acc", "epochs_trained"]
        assert [[float(v) for v in row[:4]] + [int(row[4])] for row in rows[1:]] == \
            [[c.lr, c.dropout, c.val_auc, c.val_acc, c.epochs_trained] for c in tables[0]]
        assert [(c.lr, c.dropout) for c in tables[0]] == [(5e-3, 0.0), (5e-3, 0.2),
                                                          (1e-3, 0.0), (1e-3, 0.2)]
        assert (tmp_path / "grid" / "grid.csv").read_bytes() == \
            (tmp_path / "grid2" / "grid.csv").read_bytes()
        assert not (workspace / "run" / "grid.csv").exists()  # only a grid run writes it

    def test_plain_run_is_the_one_cell_grid(self, workspace, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "GRID", ((5e-3, 0.3),))
        assert main(["train", "--data", str(workspace / "annotated"), "--dropout", "0.3",
                     "--out", str(tmp_path / "plain")] + TRAIN_FLAGS) == EXIT_OK
        assert main(["train", "--data", str(workspace / "annotated"), "--grid",
                     "--out", str(tmp_path / "grid")] + TRAIN_FLAGS) == EXIT_OK
        for name in ("checkpoint.json", "metrics.json", "history.csv"):
            assert (tmp_path / "plain" / name).read_bytes() == \
                (tmp_path / "grid" / name).read_bytes(), name
        assert not (tmp_path / "plain" / "grid.csv").exists()

    def test_train_is_deterministic(self, workspace, tmp_path, capsys):
        assert main(["train", "--data", str(workspace / "annotated"),
                     "--out", str(tmp_path / "run2")] + TRAIN_FLAGS) == EXIT_OK
        again = json.loads((tmp_path / "run2" / "metrics.json").read_text())
        first = json.loads((workspace / "run" / "metrics.json").read_text())
        assert again == first

    @pytest.mark.parametrize("backbone", ("recurrent", "attention"))
    def test_training_does_not_depend_on_max_len(self, workspace, tmp_path, backbone, capsys):
        # 8-step students fit whole in windows of 8 and of 10: every batch,
        # dropout draw and metric is the same, whatever --max-len is
        flags = TRAIN_FLAGS + ["--backbone", backbone, "--dropout", "0.3"]
        for max_len in ("8", "10"):
            run = tmp_path / max_len
            assert main(["train", "--data", str(workspace / "annotated"), "--out", str(run)]
                        + flags + ["--max-len", max_len]) == EXIT_OK
            assert main(["eval", "--checkpoint", str(run / "checkpoint.json"),
                         "--data", str(workspace / "annotated"),
                         "--out", str(run / "eval.json")]) == EXIT_OK
        for name in ("history.csv", "metrics.json", "eval.json"):
            assert (tmp_path / "8" / name).read_bytes() == (tmp_path / "10" / name).read_bytes()

    def test_filtered_interactions_are_reported(self, workspace, tmp_path, caplog, capsys):
        data = tmp_path / "data"
        data.mkdir()
        problems = json.loads((workspace / "annotated" / "problems.json").read_text())
        records = [json.loads(line) for line in
                   (workspace / "annotated" / "interactions.jsonl").read_text().splitlines()]
        textless = records[0]["problem_id"]
        next(p for p in problems if p["problem_id"] == textless)["text"] = " "
        short = next(r for r in records if r["problem_id"] != textless)
        short["process_text"] = "one\n\ntwo\nthree\nfour"
        (data / "problems.json").write_text(json.dumps(problems))
        (data / "interactions.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
        dropped = sum(r["problem_id"] == textless for r in records)
        expect = (f"{data}: dropped 1 interactions with fewer than 5 non-blank process lines "
                  f"and {dropped} whose problem has empty text; 0 students had none left")
        commands = {"train": ["train", "--data", str(data), "--out", str(tmp_path / "run")]
                    + TRAIN_FLAGS,
                    "eval": ["eval", "--checkpoint", str(workspace / "run" / "checkpoint.json"),
                             "--data", str(data)]}
        for name, args in commands.items():
            caplog.clear()
            with caplog.at_level("WARNING", logger="prockt.cli"):
                assert main(args) == EXIT_OK, name
            assert [r.getMessage() for r in caplog.records] == [expect], name
            caplog.clear()
            with caplog.at_level("WARNING", logger="prockt.cli"):
                assert main([a.replace(str(data), str(workspace / "annotated"))
                             for a in args]) == EXIT_OK, name
            assert caplog.records == [], name

    def test_eval_checkpoint(self, workspace, tmp_path, capsys):
        out = tmp_path / "new" / "eval.json"  # a missing directory is made
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
        out = tmp_path / "new" / "report.md"  # a missing directory is made
        assert main(["report", "--runs", str(workspace / "run"),
                     "--out", str(out)]) == EXIT_OK
        table = out.read_text()
        assert "| Backbone |" in table
        assert "| recurrent |" in table


def _listed_and_written(out: Path) -> tuple[list[str], list[str]]:
    """A run's manifest outputs, and the files in its ``--out`` but the manifest."""
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    return sorted(outputs), sorted(str(p) for p in out.iterdir() if p.name != "manifest.json")


class TestManifest:
    @pytest.mark.parametrize("run", ["data", "annotated", "run"])  # synth, extract-mp, train
    def test_outputs_are_the_files_written(self, workspace, run):
        listed, written = _listed_and_written(workspace / run)
        assert listed == written

    def test_grid_run_lists_its_grid(self, workspace, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "GRID", ((5e-3, 0.0), (1e-3, 0.2)))
        out = tmp_path / "grid"
        assert main(["train", "--data", str(workspace / "annotated"), "--grid",
                     "--out", str(out)] + TRAIN_FLAGS) == EXIT_OK
        listed, written = _listed_and_written(out)
        assert listed == written and str(out / "grid.csv") in listed
        # the config records the cell the grid chose, not the --lr and --dropout flags
        config = json.loads((out / "manifest.json").read_text())["config"]
        metrics = json.loads((out / "metrics.json").read_text())
        assert (config["lr"], config["dropout"]) == (metrics["lr"], metrics["dropout"])
        assert (config["lr"], config["dropout"]) in cli.GRID  # the flags' (5e-3, 0.1) is not


class TestGradcheck:
    def test_passes_with_exit_zero(self, capsys):
        assert main(["gradcheck", "--seeds", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "composite loss" in out
        assert "FAIL" not in out
