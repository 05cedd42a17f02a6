import filecmp
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from clipvid import cli, gradcheck_suite
from clipvid import synthvid as sv
from clipvid.checkpoint import load_checkpoint
from oracles import corrupt_adjoint
from test_checkpoint import MALFORMED


def run(*argv):
    return cli.main(list(argv))


def dir_fingerprint(path):
    out = {}
    for root, _dirs, files in os.walk(path):
        for name in files:
            p = os.path.join(root, name)
            rel = os.path.relpath(p, path)
            with open(p, "rb") as fh:
                out[rel] = fh.read()
    return out


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "ds"
    assert run("gen", "--out", str(path), "--clips", "6", "--seed", "3",
               "--frames", "6", "--frame-size", "32") == 0
    return str(path)


def test_gen_deterministic_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("gen", "--out", str(a), "--clips", "4", "--seed", "1",
               "--frame-size", "32", "--frames", "4") == 0
    assert run("gen", "--out", str(b), "--clips", "4", "--seed", "1",
               "--frame-size", "32", "--frames", "4") == 0
    assert dir_fingerprint(a) == dir_fingerprint(b)


def test_gen_zero_clips_valid_empty(tmp_path):
    out = tmp_path / "empty"
    assert run("gen", "--out", str(out), "--clips", "0", "--seed", "1") == 0
    assert sv.read_dataset(str(out)) == []


@pytest.mark.parametrize("argv", [
    ("--frame-size", "10"), ("--frame-size", "0"), ("--frames", "0"), ("--clips", "-1"),
    ("--seed", "-1"), ("--occluder-prob", "1.5"), ("--blur-scale", "-1"),
    ("--blur-scale", "nan"), ("--blur-scale", "inf"),
], ids=["frame_size_not_multiple_of_8", "frame_size_zero", "frames_zero", "clips_negative",
        "seed_negative", "occluder_prob_above_one", "blur_scale_negative", "blur_scale_nan",
        "blur_scale_inf"])
def test_gen_malformed_arguments_are_usage_errors(tmp_path, capsys, argv):
    """A frame size off the 8x8 background grid, an empty clip, a negative
    clip count or seed, or a probability or blur scale out of range or not
    finite is refused before anything is written."""
    out = tmp_path / "bad"
    assert run("gen", "--out", str(out), "--clips", "1", "--frame-size", "16",
               "--frames", "2", *argv) == cli.EXIT_USAGE       # the last value wins
    assert argv[0].lstrip("-").replace("-", "_") in capsys.readouterr().err
    assert not out.exists()


def test_gen_manifest_count(tmp_path, capsys):
    out = tmp_path / "many"
    assert run("gen", "--out", str(out), "--clips", "10", "--seed", "2",
               "--frame-size", "16", "--frames", "2") == 0
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert manifest == ["clipvid-dataset v2", *map(str, range(10))]
    assert [clip.clip_id for clip in sv.read_dataset(str(out))] == list(range(10))


MICRO_CFG = """num_classes=5
t_train=2
t_infer=4
num_queries=4
dim=8
heads=2
decoder_layers=2
roi_size=2
ica_layers=1
ica_topk=2
backbone_channels=4,8
"""


@pytest.fixture(scope="module")
def micro_cfg_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "micro.cfg"
    p.write_text(MICRO_CFG)
    return str(p)


def test_train_smoke_loss_decreases(dataset, micro_cfg_path, tmp_path):
    ckpt = tmp_path / "m.ckpt"
    assert run("train", "--data", dataset, "--variant", "no_ica",
               "--config", micro_cfg_path, "--ckpt-out", str(ckpt),
               "--seed", "0", "--iters", "50") == 0
    lines = (tmp_path / "m.ckpt.log").read_text().splitlines()
    assert len(lines) == 50
    # Mean loss of the first and the last ten iterations: one iteration's
    # loss depends on which clips the seed draws for it.
    loss = [float(line.split(",")[1]) for line in lines]
    assert np.mean(loss[-10:]) < np.mean(loss[:10])
    # no_ica: contrastive column identically zero
    assert all(float(l.split(",")[5]) == 0.0 for l in lines)
    assert os.path.exists(str(ckpt) + ".config.txt")
    assert os.path.exists(str(ckpt) + ".run.txt")


def test_train_deterministic_logs(dataset, micro_cfg_path, tmp_path):
    logs = []
    for name in ("a", "b"):
        ckpt = tmp_path / f"{name}.ckpt"
        assert run("train", "--data", dataset, "--variant", "no_ica",
                   "--config", micro_cfg_path, "--ckpt-out", str(ckpt),
                   "--seed", "9", "--iters", "8") == 0
        logs.append((tmp_path / f"{name}.ckpt.log").read_bytes())
    assert logs[0] == logs[1]
    assert filecmp.cmp(tmp_path / "a.ckpt", tmp_path / "b.ckpt", shallow=False)


def trained_tensors(dataset, micro_cfg_path, ckpt, *argv):
    """The tensors of a seed-2 micro-config train run to ckpt."""
    assert run("train", "--data", dataset, "--config", micro_cfg_path, "--ckpt-out", str(ckpt),
               "--seed", "2", *argv) == 0
    return load_checkpoint(str(ckpt))[0]


def changed(start, end, ica):
    """The names of the ICA (ica=True) or other tensors whose bytes differ."""
    return [k for k in start if cli.M.is_ica_param(k) == ica
            and start[k].tobytes() != end[k].tobytes()]


def test_train_full_trains_ica_from_initialisation(dataset, micro_cfg_path, tmp_path):
    """--variant full without --ckpt-in trains the ICA layers from the
    initialisation --seed draws: every ICA tensor leaves its initial value
    (the --iters 0 checkpoint), and the contrastive loss is on."""
    init = trained_tensors(dataset, micro_cfg_path, tmp_path / "init.ckpt",
                           "--variant", "full", "--iters", "0")
    full = trained_tensors(dataset, micro_cfg_path, tmp_path / "full.ckpt",
                           "--variant", "full", "--iters", "6")
    ica = [k for k in init if cli.M.is_ica_param(k)]
    assert ica and changed(init, full, ica=True) == ica
    log = (tmp_path / "full.ckpt.log").read_text().splitlines()
    assert any(float(line.split(",")[5]) != 0.0 for line in log)


@pytest.mark.parametrize("start", ["init", "ckpt_in"])
def test_train_no_ica_leaves_every_ica_tensor_as_it_starts(dataset, micro_cfg_path, tmp_path,
                                                           start):
    """--variant no_ica trains the detector and leaves every ICA tensor
    byte-equal to where it started: the initialisation --seed draws (the
    --iters 0 checkpoint), or a --ckpt-in checkpoint trained with ICA."""
    ckpt_in = tmp_path / "in.ckpt"
    first = trained_tensors(dataset, micro_cfg_path, ckpt_in, "--variant", "full",
                            "--iters", "0" if start == "init" else "3")
    argv = ["--ckpt-in", str(ckpt_in)] if start == "ckpt_in" else []
    end = trained_tensors(dataset, micro_cfg_path, tmp_path / "out.ckpt", "--variant", "no_ica",
                          "--iters", "3", *argv)
    assert changed(first, end, ica=True) == [] and changed(first, end, ica=False)
    assert all(float(line.split(",")[5]) == 0.0
               for line in (tmp_path / "out.ckpt.log").read_text().splitlines())


@pytest.mark.parametrize("argv, message", [
    ((), "the following arguments are required: --variant"),
    (("--stage", "1"), "the following arguments are required: --variant"),
    (("--stage", "1", "--variant", "no_ica"), "unrecognized arguments: --stage 1"),
], ids=["no_variant", "stage", "stage_and_variant"])
def test_train_has_one_ica_switch(dataset, capsys, monkeypatch, tmp_path, argv, message):
    """--variant is required and --stage is no option: a run without the
    one or with the other is refused before anything is written."""
    monkeypatch.chdir(tmp_path)
    assert run("train", "--data", dataset, "--ckpt-out", "x.ckpt", *argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not os.listdir(tmp_path)


def test_train_then_finetune_with_ica_then_eval(dataset, micro_cfg_path, tmp_path):
    s1 = tmp_path / "s1.ckpt"
    s2 = tmp_path / "s2.ckpt"
    assert run("train", "--data", dataset, "--variant", "no_ica",
               "--config", micro_cfg_path, "--ckpt-out", str(s1),
               "--seed", "0", "--iters", "10") == 0
    assert run("train", "--data", dataset, "--variant", "full",
               "--config", micro_cfg_path, "--ckpt-in", str(s1),
               "--ckpt-out", str(s2), "--seed", "0", "--iters", "6") == 0
    log = (tmp_path / "s2.ckpt.log").read_text().splitlines()
    assert any(float(l.split(",")[5]) != 0.0 for l in log)

    out = tmp_path / "report"
    assert run("eval", "--data", dataset, "--ckpt", str(s2),
               "--out", str(out), "--frames", "2",
               "--dump-matches", str(tmp_path / "matches.txt")) == 0
    text = (tmp_path / "report.report.txt").read_text()
    assert "map=" in text
    assert (tmp_path / "report.buckets.csv").read_text().startswith("bucket,")
    assert (tmp_path / "matches.txt").read_text().strip() != ""
    assert run("eval", "--data", dataset, "--ckpt", str(s2),
               "--out", str(out), "--frames", "2",
               "--dump-matches", str(tmp_path / "matches.txt" / "m.txt")) == cli.EXIT_IO

    # oracle aggregation and aggregation-off variants run on the same ckpt
    assert run("eval", "--data", dataset, "--ckpt", str(s2),
               "--out", str(tmp_path / "r2"), "--variant", "oracle_ica",
               "--frames", "2") == 0
    assert run("eval", "--data", dataset, "--ckpt", str(s2),
               "--out", str(tmp_path / "r3"), "--variant", "no_ica",
               "--frames", "2") == 0


def test_eval_deterministic(dataset, micro_cfg_path, tmp_path):
    ckpt = tmp_path / "d.ckpt"
    assert run("train", "--data", dataset, "--variant", "no_ica",
               "--config", micro_cfg_path, "--ckpt-out", str(ckpt),
               "--seed", "4", "--iters", "5") == 0
    for name in ("r1", "r2"):
        assert run("eval", "--data", dataset, "--ckpt", str(ckpt),
                   "--out", str(tmp_path / name), "--frames", "3") == 0
    assert (tmp_path / "r1.report.txt").read_bytes() \
        == (tmp_path / "r2.report.txt").read_bytes()


def test_eval_config_mismatch_names_field(dataset, micro_cfg_path, tmp_path):
    ckpt = tmp_path / "mm.ckpt"
    assert run("train", "--data", dataset, "--variant", "no_ica",
               "--config", micro_cfg_path, "--ckpt-out", str(ckpt),
               "--seed", "0", "--iters", "3") == 0
    sidecar = Path(str(ckpt) + ".config.txt")
    sidecar.write_text(sidecar.read_text().replace("dim=8", "dim=16"))
    code = run("eval", "--data", dataset, "--ckpt", str(ckpt),
               "--out", str(tmp_path / "x"))
    assert code == cli.EXIT_USAGE


def test_train_bad_config_value_is_usage_error(dataset, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(MICRO_CFG.replace("dim=8", "dim=abc"))
    code = run("train", "--data", dataset, "--variant", "no_ica", "--config", str(cfg),
               "--ckpt-out", str(tmp_path / "x.ckpt"))
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "'dim'" in err and "'abc'" in err


@pytest.mark.parametrize("edit, names", [
    (lambda text: text.replace("dim=8", "dimm=8"), ("'dimm'",)),
    (lambda text: text + "fixed_queries=False\n", ("unknown field 'fixed_queries'",)),
    (lambda text: text + "backbone_stride=4\n", ("unknown field 'backbone_stride'",)),
    (lambda text: text + "dim=16\n", ("repeated field 'dim'",)),
], ids=["unknown_key", "bad_boolean", "stride_disagrees_with_channels", "repeated_field"])
def test_train_malformed_config_is_usage_error(dataset, tmp_path, capsys, edit, names):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(edit(MICRO_CFG))
    code = run("train", "--data", dataset, "--variant", "no_ica", "--config", str(cfg),
               "--ckpt-out", str(tmp_path / "x.ckpt"), "--iters", "1")
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert all(name in err for name in names) and "Traceback" not in err


@pytest.mark.parametrize("field, value", [
    ("heads", 0), ("t_infer", 0), ("ica_topk", -1), ("ica_topk", 0), ("ica_layers", -1),
    ("score_thresh", "nan"), ("score_thresh", "inf"),
], ids=["heads_zero", "t_infer_zero", "ica_topk_negative", "ica_topk_zero",
        "ica_layers_negative", "score_thresh_nan", "score_thresh_inf"])
def test_out_of_range_config_value_is_usage_error(dataset, tmp_path, capsys, field, value):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(re.sub(rf"^{field}=.*\n", "", MICRO_CFG, flags=re.M) + f"{field}={value}\n")
    code = run("train", "--data", dataset, "--variant", "no_ica", "--config", str(cfg),
               "--ckpt-out", str(tmp_path / "x.ckpt"), "--iters", "1")
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err
    assert not (tmp_path / "x.ckpt").exists()


def with_class(src, dst, class_id):
    """Write the dataset at src to dst with every track set to class_id."""
    clips = sv.read_dataset(src)
    for clip in clips:
        clip.tracks.cls[:] = class_id
    sv.write_dataset(clips, str(dst))
    return str(dst)


def test_train_class_out_of_range_is_input_error(dataset, micro_cfg_path, tmp_path, capsys):
    data = with_class(dataset, tmp_path / "ds", 7)
    code = run("train", "--data", data, "--variant", "no_ica", "--config", micro_cfg_path,
               "--ckpt-out", str(tmp_path / "x.ckpt"), "--iters", "1")
    assert code == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert "input error" in err and "class 7" in err and "Traceback" not in err
    assert not (tmp_path / "x.ckpt").exists()


@pytest.mark.parametrize("refusal", ["capacity", "class", "frame_size"])
def test_a_refused_train_run_leaves_no_file(dataset, micro_cfg_path, tmp_path, capsys, refusal):
    """A dataset train() refuses before its first iteration, a frame with
    more objects than the 4 queries (exit 6), a class the model lacks
    (exit 5) or 16-px frames, whose 2x2 feature map the desk config's 4x4
    summaries do not divide (exit 1), leaves no log, checkpoint or sidecar
    behind."""
    config = ["--config", micro_cfg_path]
    if refusal == "capacity":
        data = str(tmp_path / "crowd")
        assert run("gen", "--out", data, "--clips", "8", "--seed", "8", "--frames", "2",
                   "--frame-size", "32", "--min-objects", "1", "--max-objects", "5") == 0
    elif refusal == "class":
        data = with_class(dataset, tmp_path / "ds", 7)
    else:
        data = str(tmp_path / "small")
        assert run("gen", "--out", data, "--clips", "2", "--seed", "8", "--frames", "2",
                   "--frame-size", "16") == 0
        config = []
    out = tmp_path / "out"
    code = run("train", "--data", data, "--variant", "no_ica", *config,
               "--ckpt-out", str(out / "x.ckpt"), "--iters", "2")
    assert code == {"capacity": cli.EXIT_CAPACITY, "class": cli.EXIT_INPUT,
                    "frame_size": cli.EXIT_USAGE}[refusal]
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if refusal == "frame_size":
        assert "feature map 2x2 not divisible by summary size 4" in err
    assert not out.exists() and not list(tmp_path.glob("**/x.ckpt*"))


@pytest.mark.parametrize("refusal", ["frame_size", "capacity"])
def test_a_refused_eval_run_leaves_no_directory(tmp_path, capsys, monkeypatch, refusal):
    """eval refuses, before it makes the --out directory, 16-px frames, whose
    2x2 feature map a desk-stride checkpoint's 4x4 summaries do not divide
    (exit 1), and for oracle_ica a frame with more ground truths than the
    checkpoint's 3 queries (exit 6), naming its clip; full and no_ica
    evaluate those crowded frames."""
    monkeypatch.chdir(tmp_path)
    Path("q3.cfg").write_text("num_queries=3\nica_topk=3\n")
    assert run("gen", "--out", "train", "--clips", "1", "--frames", "2", "--frame-size", "32",
               "--max-objects", "3") == 0
    assert run("train", "--data", "train", "--variant", "full", "--config", "q3.cfg",
               "--ckpt-out", "k.ckpt", "--iters", "0") == 0
    size, objects = ("16", "1") if refusal == "frame_size" else ("32", "4")
    assert run("gen", "--out", "data", "--clips", "2", "--frames", "2", "--frame-size", size,
               "--min-objects", objects, "--max-objects", objects) == 0
    capsys.readouterr()
    code = run("eval", "--data", "data", "--ckpt", "k.ckpt", "--variant", "oracle_ica",
               "--out", "out/r")
    err = capsys.readouterr().err
    assert "Traceback" not in err and not os.path.exists("out")
    if refusal == "frame_size":
        assert code == cli.EXIT_USAGE
        assert "error: feature map 2x2 not divisible by summary size 4" in err
    else:
        assert code == cli.EXIT_CAPACITY
        assert re.search(r"capacity error: clip \d+ frame \d+: 4 ground truths exceed 3 "
                         r"prediction slots", err)
        for variant in ("full", "no_ica"):
            assert run("eval", "--data", "data", "--ckpt", "k.ckpt", "--variant", variant,
                       "--out", f"{variant}/r") == cli.EXIT_OK


def test_train_and_eval_on_a_dataset_of_two_frame_sizes(micro_cfg_path, tmp_path, monkeypatch):
    """Clips of 32- and 64-px frames train side by side, a batch that draws
    both sizes as one stack per frame shape, and the result evaluates."""
    data = str(tmp_path / "mixed")
    sv.write_dataset([sv.generate_clip(sv.GenConfig(frame_size=size, t=4), seed=3, clip_id=i)
                      for i, size in enumerate((32, 64, 32, 64))], data)
    stacks, stack_clips = [], cli.tr.stack_clips

    def counting(batch):
        out = stack_clips(batch)
        stacks.append(len(out))
        return out

    monkeypatch.setattr(cli.tr, "stack_clips", counting)
    ckpt = str(tmp_path / "m.ckpt")
    assert run("train", "--data", data, "--variant", "no_ica", "--config", micro_cfg_path,
               "--ckpt-out", ckpt, "--seed", "0", "--iters", "20") == 0
    assert len(stacks) == 20 and 2 in stacks
    assert run("eval", "--data", data, "--ckpt", ckpt, "--out", str(tmp_path / "r")) == 0


def class_7_exits_before_inference(argv, dataset, ckpt, tmp_path, capsys, monkeypatch):
    """Run a command on a class-7 copy of dataset with inference patched to
    fail: a ground-truth class the checkpoint lacks must exit 5 first."""
    data = with_class(dataset, tmp_path / "ds", 7)

    def no_inference(*a, **k):
        raise AssertionError("inference ran before the class check")

    monkeypatch.setattr(cli.tr, "infer_clip", no_inference)
    code = run(*argv, "--data", data, "--ckpt", ckpt, "--out", str(tmp_path / "r"))
    assert code == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert "input error" in err and "class 7" in err and "Traceback" not in err


def test_eval_class_out_of_range_is_input_error(dataset, trained_ckpt, tmp_path, capsys,
                                                monkeypatch):
    class_7_exits_before_inference(["eval"], dataset, trained_ckpt, tmp_path, capsys,
                                   monkeypatch)


def test_eval_knobs_and_variant_class_out_of_range_is_input_error(dataset, trained_ckpt,
                                                                  tmp_path, capsys, monkeypatch):
    class_7_exits_before_inference(["eval", "--variant", "oracle_ica", "--frames", "2",
                                    "--topk", "1"], dataset, trained_ckpt, tmp_path, capsys,
                                   monkeypatch)


def test_train_more_objects_than_queries_is_capacity_error(micro_cfg_path, tmp_path, capsys):
    data = str(tmp_path / "crowd")
    assert run("gen", "--out", data, "--clips", "2", "--seed", "1", "--frames", "2",
               "--frame-size", "32", "--min-objects", "12", "--max-objects", "12") == 0
    code = run("train", "--data", data, "--variant", "no_ica", "--config", micro_cfg_path,
               "--ckpt-out", str(tmp_path / "x.ckpt"), "--iters", "1")
    assert code == cli.EXIT_CAPACITY
    err = capsys.readouterr().err
    assert "capacity error" in err and "4 prediction slots" in err and "Traceback" not in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_diverging_lr_is_numeric_error(dataset, micro_cfg_path, tmp_path, capsys):
    code = run("train", "--data", dataset, "--variant", "no_ica", "--config", micro_cfg_path,
               "--ckpt-out", str(tmp_path / "x.ckpt"), "--iters", "3", "--lr", "1e30")
    assert code == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "numeric error" in err and "Traceback" not in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_step_to_non_finite_parameters_writes_no_checkpoint(dataset, micro_cfg_path,
                                                                   tmp_path, capsys):
    """A step that leaves a parameter inf or NaN stops the run at that
    iteration, before any checkpoint is written."""
    code = run("train", "--data", dataset, "--variant", "no_ica", "--config", micro_cfg_path,
               "--ckpt-out", str(tmp_path / "x.ckpt"), "--iters", "1",
               "--lr", repr(float(np.finfo(np.float32).max)))
    assert code == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert re.search(r"iteration 0: parameter '[\w.]+' is not finite", err)
    assert "Traceback" not in err and not list(tmp_path.glob("*.ckpt"))


def test_lr_the_run_precision_cannot_hold_is_usage_error(dataset, micro_cfg_path, tmp_path,
                                                         capsys, monkeypatch):
    """--lr 1e39 overflows float32: at the default precision it is refused
    before training and no checkpoint is written; in 64-bit it passes the
    check and reaches training."""
    argv = ("train", "--data", dataset, "--variant", "no_ica", "--config", micro_cfg_path,
            "--ckpt-out", str(tmp_path / "x.ckpt"), "--iters", "1", "--lr", "1e39")
    assert run(*argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "--lr must be finite in 32-bit floats, got 1e+39" in err and "Traceback" not in err
    assert not list(tmp_path.glob("x.ckpt*"))
    seen = []
    monkeypatch.setattr(cli.tr, "train", lambda *args, log: seen.append(args[-1].lr))
    monkeypatch.setenv("CLIPVID_PRECISION", "64")
    assert run(*argv) == 0 and seen == [1e39]


@pytest.mark.parametrize("argv", [
    ("train", "--variant", "no_ica", "--ckpt-out", "x.ckpt", "--batch", "0"),
    ("train", "--variant", "no_ica", "--ckpt-out", "x.ckpt", "--seed", "-1"),
    ("train", "--variant", "no_ica", "--ckpt-out", "x.ckpt", "--iters", "-3"),
    ("train", "--variant", "no_ica", "--ckpt-out", "x.ckpt", "--lr", "nan"),
    ("train", "--variant", "no_ica", "--ckpt-out", "x.ckpt", "--lr", "inf"),
    ("train", "--variant", "no_ica", "--ckpt-out", "x.ckpt", "--lr", "-1"),
    ("train", "--variant", "no_ica", "--ckpt-out", "x.ckpt", "--lr", "0"),
    ("train", "--variant", "no_ica", "--ckpt-out", "x.ckpt", "--lr-drop", "-1"),
], ids=["batch_zero", "seed_negative", "iters_negative", "lr_nan", "lr_inf",
        "lr_negative", "lr_zero", "lr_drop_negative"])
def test_bad_argument_value_is_usage_error(dataset, capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    assert run(*argv, "--data", dataset) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not os.listdir(tmp_path)


@pytest.fixture(scope="module")
def trained_ckpt(dataset, micro_cfg_path, tmp_path_factory):
    ckpt = tmp_path_factory.mktemp("ckpt") / "k.ckpt"
    assert run("train", "--data", dataset, "--variant", "no_ica", "--config", micro_cfg_path,
               "--ckpt-out", str(ckpt), "--iters", "1") == 0
    return str(ckpt)


@pytest.mark.parametrize("argv, message", [
    (("--topk", "0"), "--topk: must be at least 1, got 0"),
    (("--frames", "0"), "--frames: must be at least 1, got 0"),
    (("--frames", "-2"), "--frames: must be at least 1, got -2"),
    (("--topk", "-1"), "--topk: must be at least 1, got -1"),
    (("--topk", "x"), "--topk: invalid int value: 'x'"),
    (("--frames", "2.5"), "--frames: invalid int value: '2.5'"),
    (("--topk", "5"), "error: ica_topk 5 exceeds num_queries 4"),
    (("--topk", "1", "--topk", "5"), "error: ica_topk 5 exceeds num_queries 4"),
], ids=["eval_topk_zero", "eval_frames_zero", "eval_frames_negative", "eval_topk_negative",
        "eval_topk_not_int", "eval_frames_not_int", "eval_topk_above_queries",
        "eval_topk_repeated_last_counts"])
def test_out_of_range_inference_knob_is_usage_error(dataset, trained_ckpt, capsys,
                                                     tmp_path, argv, message):
    """A knob below 1 is refused as an argument; one the checkpoint cannot
    run, by the run config's own check, not run at a lower value."""
    code = run("eval", *argv, "--data", dataset, "--ckpt", trained_ckpt,
               "--out", str(tmp_path / "r"))
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not list(tmp_path.glob("r*"))


@pytest.mark.parametrize("argv", [
    ("train", "--variant", "no_ica", "--ckpt-out", "x.ckpt"),
    ("eval", "--ckpt", "CKPT", "--out", "r"),
    ("eval", "--ckpt", "CKPT", "--out", "out/r", "--dump-matches", "dumps/m.txt"),
], ids=["train", "eval", "eval_new_dirs"])
def test_empty_dataset_is_usage_error(trained_ckpt, capsys, monkeypatch, tmp_path, argv):
    """A dataset without clips is refused before anything is written, not
    scored as map=0."""
    monkeypatch.chdir(tmp_path)
    assert run("gen", "--out", "empty", "--clips", "0") == 0
    argv = [trained_ckpt if a == "CKPT" else a for a in argv]
    assert run(*argv, "--data", "empty") == cli.EXIT_USAGE
    assert "error: empty dataset" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["empty"]


def read_snapshot(path) -> dict[str, str]:
    return dict(line.split("=", 1) for line in Path(path).read_text().splitlines())


def test_run_snapshots_record_precision_and_topk(dataset, micro_cfg_path, trained_ckpt,
                                                 tmp_path, monkeypatch):
    """Every run snapshot records the float precision, and eval's the
    aggregation top-k it ran with: both change the outputs."""
    monkeypatch.setenv("CLIPVID_PRECISION", "64")
    assert run("train", "--data", dataset, "--variant", "full", "--config", micro_cfg_path,
               "--ckpt-in", trained_ckpt, "--ckpt-out", str(tmp_path / "s2.ckpt"),
               "--iters", "1") == 0
    assert run("eval", "--data", dataset, "--ckpt", trained_ckpt, "--topk", "1",
               "--out", str(tmp_path / "e")) == 0
    snapshots = [read_snapshot(tmp_path / name) for name in ("s2.ckpt.run.txt", "e.run.txt")]
    assert [s["precision"] for s in snapshots] == ["64"] * 2
    assert snapshots[1]["topk"] == "1"
    monkeypatch.delenv("CLIPVID_PRECISION")
    assert run("eval", "--data", dataset, "--ckpt", trained_ckpt,
               "--out", str(tmp_path / "e")) == 0
    assert read_snapshot(tmp_path / "e.run.txt")["precision"] == "32"
    assert read_snapshot(tmp_path / "e.run.txt")["topk"] == "2"


@pytest.mark.parametrize("edit, code", [
    (lambda text: text.replace("heads=2", "heads=1"), cli.EXIT_USAGE),
    (lambda text: text + "score_thresh=0.3\n", cli.EXIT_OK),
], ids=["heads_differs", "score_thresh_differs"])
def test_ckpt_in_config_checked_against_checkpoint(dataset, trained_ckpt, tmp_path, capsys,
                                                  edit, code):
    """The head count changes no tensor shape, so only the sidecar check
    sees it; the score threshold is a run setting and may differ."""
    cfg = tmp_path / "s2.cfg"
    cfg.write_text(edit(MICRO_CFG))
    assert run("train", "--data", dataset, "--variant", "full", "--config", str(cfg),
               "--ckpt-in", trained_ckpt, "--ckpt-out", str(tmp_path / "s2.ckpt"),
               "--iters", "1") == code
    if code:
        assert "'heads'" in capsys.readouterr().err


def test_ckpt_in_without_config_uses_the_checkpoint_sidecar(dataset, trained_ckpt, tmp_path):
    """Without --config, a run from --ckpt-in trains with the config the --ckpt-in
    checkpoint was built with (its sidecar), as eval does, not desk scale."""
    s2 = tmp_path / "s2.ckpt"
    assert run("train", "--data", dataset, "--variant", "full", "--ckpt-in", trained_ckpt,
               "--ckpt-out", str(s2), "--iters", "1") == cli.EXIT_OK
    with open(trained_ckpt + ".config.txt") as fh:
        assert (tmp_path / "s2.ckpt.config.txt").read_text() == fh.read()


@pytest.mark.parametrize("argv, window", [
    (("eval",), [4, 2]),
    (("eval", "--frames", "5"), [5, 1]),
    (("eval", "--frames", "3"), [3]),
], ids=["eval_config", "eval_frames", "eval_frames_even"])
def test_inference_window_follows_the_frames_knob(dataset, trained_ckpt, monkeypatch,
                                                   tmp_path, argv, window):
    """Each 6-frame clip runs in windows of the knob's frames, else of the
    checkpoint config's t_infer (4): a pass's window is its frame count over
    its clips, the full windows stacked in one pass."""
    lengths = []
    real = cli.M.clip_forward

    def recording(frames, *rest, clips=1, **kw):
        lengths.append(len(frames) // clips)
        return real(frames, *rest, clips=clips, **kw)

    monkeypatch.setattr(cli.M, "clip_forward", recording)
    assert run(*argv, "--data", dataset, "--ckpt", trained_ckpt,
               "--out", str(tmp_path / "r")) == 0
    assert lengths == window * 6


def test_eval_non_finite_identity_head_is_numeric_error(dataset, trained_ckpt, capsys, tmp_path):
    """A NaN identity head stops eval with exit 4 instead of aggregating
    other queries' regions."""
    from clipvid.checkpoint import load_checkpoint, save_checkpoint
    tensors, prec = load_checkpoint(trained_ckpt)
    tensors["layer0.head_id1.w"][0, 0] = np.nan
    ckpt = tmp_path / "nan.ckpt"
    save_checkpoint(tensors, str(ckpt), precision=prec)
    shutil.copy(trained_ckpt + ".config.txt", str(ckpt) + ".config.txt")
    code = run("eval", "--data", dataset, "--ckpt", str(ckpt), "--out", str(tmp_path / "r"))
    assert code == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "numeric error" in err and "identity" in err and "Traceback" not in err


def test_eval_refuses_a_checkpoint_with_key_biases(dataset, trained_ckpt, capsys, tmp_path):
    """A checkpoint in the layout that stored each attention key as a
    linear layer, ...k.w and ...k.b, is refused with exit 1, naming both."""
    from clipvid.checkpoint import load_checkpoint, save_checkpoint
    tensors, prec = load_checkpoint(trained_ckpt)
    old = {}
    for name, value in tensors.items():
        if name.endswith(".k"):
            old[name + ".w"], old[name + ".b"] = value, np.zeros(value.shape[1])
        else:
            old[name] = value
    ckpt = tmp_path / "old.ckpt"
    save_checkpoint(old, str(ckpt), precision=prec)
    shutil.copy(trained_ckpt + ".config.txt", str(ckpt) + ".config.txt")
    code = run("eval", "--data", dataset, "--ckpt", str(ckpt), "--out", str(tmp_path / "r"))
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "checkpoint/config mismatch: missing=['layer0.cross_attn.k'" in err
    assert "'layer0.cross_attn.k.b', 'layer0.cross_attn.k.w'" in err
    assert "Traceback" not in err


def test_non_utf8_tensor_name_is_io_error(dataset, tmp_path, capsys):
    """A name outside latin-1 makes np.save write a UTF-8 (format 3.0)
    header; one whose bytes are not UTF-8 is refused with exit 2."""
    from clipvid.checkpoint import save_checkpoint
    ckpt = tmp_path / "bad.ckpt"
    with pytest.warns(UserWarning, match="format 3.0"):
        save_checkpoint({"a\u0101": np.zeros(2)}, str(ckpt))
    blob = ckpt.read_bytes()
    assert blob.count("a\u0101".encode()) == 1
    ckpt.write_bytes(blob.replace("\u0101".encode(), b"\xff\xff"))
    code = run("eval", "--data", dataset, "--ckpt", str(ckpt), "--out", str(tmp_path / "r"))
    assert code == cli.EXIT_IO
    err = capsys.readouterr().err
    assert f"checkpoint {ckpt}: " in err and "utf-8" in err and "Traceback" not in err


@pytest.mark.parametrize("case", MALFORMED)
@pytest.mark.parametrize("argv", [
    ("eval", "--ckpt", "BAD", "--out", "r"),
    ("eval", "--ckpt", "BAD", "--out", "out/r", "--frames", "2", "--topk", "1",
     "--dump-matches", "dumps/m.txt"),
    ("train", "--variant", "full", "--ckpt-in", "BAD", "--ckpt-out", "x.ckpt"),
], ids=["eval", "eval_knobs", "train"])
def test_malformed_checkpoint_is_io_error(dataset, capsys, monkeypatch, tmp_path, argv, case):
    """Each malformed checkpoint exits 2 naming the file, before anything is
    written."""
    monkeypatch.chdir(tmp_path)
    Path("bad.ckpt").write_bytes(MALFORMED[case][0])
    code = run(*["bad.ckpt" if a == "BAD" else a for a in argv], "--data", dataset)
    assert code == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("I/O error: checkpoint bad.ckpt: ") and "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == ["bad.ckpt"]


def test_eval_missing_data_is_io_error(tmp_path):
    code = run("eval", "--data", str(tmp_path / "nope"), "--ckpt", "x",
               "--out", str(tmp_path / "x"))
    assert code == cli.EXIT_IO


def test_eval_older_dataset_layout_is_io_error_with_regenerate_hint(trained_ckpt, tmp_path,
                                                                     capsys):
    """A dataset in the text layout that preceded the .npy files is refused
    with exit 2 and a hint to regenerate it, before the checkpoint loads."""
    data = tmp_path / "v1"
    (data / "clips").mkdir(parents=True)
    (data / "manifest.txt").write_text(
        "clipvid-dataset v1\nclips=1\n"
        "clip 0 frames=1 height=8 width=8 file=clips/clip_000000.bin tracks=0\n")
    (data / "clips" / "clip_000000.bin").write_bytes(bytes(8 * 8 * 3 * 4))
    (data / "annotations.txt").write_text("")
    code = run("eval", "--data", str(data), "--ckpt", trained_ckpt, "--out", str(tmp_path / "r"))
    assert code == cli.EXIT_IO
    err = capsys.readouterr().err
    assert re.search(r"I/O error: .*manifest\.txt:1: .*regenerate the dataset with `clipvid gen`",
                     err) and "Traceback" not in err


@pytest.mark.parametrize("config, ckpt_out", [
    ("missing.cfg", "x.ckpt"),
    (None, "file/sub/x.ckpt"),
], ids=["config_missing", "ckpt_out_under_a_file"])
def test_train_unreadable_or_unwritable_path_is_io_error(dataset, micro_cfg_path, capsys,
                                                         monkeypatch, tmp_path, config,
                                                         ckpt_out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("")
    code = run("train", "--data", dataset, "--variant", "no_ica", "--iters", "1",
               "--config", config or micro_cfg_path, "--ckpt-out", ckpt_out)
    assert code == cli.EXIT_IO
    err = capsys.readouterr().err
    assert "I/O error:" in err and "Traceback" not in err


def test_eval_makes_the_directories_of_its_outputs(dataset, trained_ckpt, monkeypatch, tmp_path):
    """eval makes the directories of --out and --dump-matches before it
    infers, so a new one is no refusal after the whole run; an --out under a
    file is refused before inference, and no dump is left behind."""
    monkeypatch.chdir(tmp_path)
    assert run("eval", "--data", dataset, "--ckpt", trained_ckpt, "--out", "missing/r",
               "--dump-matches", "dumps/m.txt") == 0
    assert sorted(os.listdir("missing")) == ["r.buckets.csv", "r.report.txt", "r.run.txt"]
    assert os.listdir("dumps") == ["m.txt"]
    Path("file").write_text("")

    def no_inference(*a, **k):
        raise AssertionError("inference ran before the output paths were made")

    monkeypatch.setattr(cli.tr, "infer_clip", no_inference)
    assert run("eval", "--data", dataset, "--ckpt", trained_ckpt, "--out", "file/r",
               "--dump-matches", "m.txt") == cli.EXIT_IO
    assert sorted(os.listdir(tmp_path)) == ["dumps", "file", "missing"]


def test_train_makes_the_directory_of_its_log(dataset, micro_cfg_path, monkeypatch, tmp_path):
    """train makes the directory of --log, as of --ckpt-out, before it
    trains."""
    monkeypatch.chdir(tmp_path)
    assert run("train", "--data", dataset, "--variant", "no_ica", "--config", micro_cfg_path,
               "--ckpt-out", "new/x.ckpt", "--log", "missing/x.log", "--iters", "1") == 0
    assert os.listdir("missing") == ["x.log"] and Path("missing/x.log").read_text()
    assert sorted(os.listdir("new")) == ["x.ckpt", "x.ckpt.config.txt", "x.ckpt.run.txt"]


@pytest.mark.parametrize("command, option", [("train", "--log"), ("eval", "--dump-matches")])
def test_an_output_under_a_file_is_refused_before_any_directory_is_made(
        dataset, micro_cfg_path, trained_ckpt, monkeypatch, tmp_path, capsys, command, option):
    """Every output's parent is checked before any is made: an output under
    a regular file is refused as an I/O error that names its option, and
    the other output's new directory is not made."""
    monkeypatch.chdir(tmp_path)
    Path("file").write_text("")
    argv = {"train": ("train", "--data", dataset, "--variant", "no_ica", "--config", micro_cfg_path,
                      "--iters", "1", "--ckpt-out", "new/x.ckpt", "--log", "file/x.log"),
            "eval": ("eval", "--data", dataset, "--ckpt", trained_ckpt, "--out", "new/r",
                     "--dump-matches", "file/m.txt")}[command]
    assert run(*argv) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith(f"I/O error: {option} file/") and "not a directory" in err
    assert os.listdir(tmp_path) == ["file"]


def test_usage_error_exit_code():
    assert run("train", "--data") == cli.EXIT_USAGE
    assert run("nonsense") == cli.EXIT_USAGE
    assert run("gradcheck", "--seed", "-1") == cli.EXIT_USAGE


def test_gradcheck_cli_pass_and_corruption(capsys, monkeypatch):
    assert run("gradcheck", "--seed", "0") == 0
    out = capsys.readouterr().out
    assert out.count("ok") >= 12 and "0 failed" in out
    # The primitive checks alone catch a broken adjoint; the model check
    # would only repeat the verdict.
    corrupt_adjoint(monkeypatch, "matmul")
    monkeypatch.setattr(gradcheck_suite, "model_checks", lambda seed: [])
    assert run("gradcheck", "--seed", "0") == cli.EXIT_CHECK
    out = capsys.readouterr().out
    assert "FAIL" in out and "matmul" in out


def test_precision_env_override(dataset, monkeypatch, tmp_path):
    monkeypatch.setenv("CLIPVID_PRECISION", "banana")
    assert run("gen", "--out", str(tmp_path / "x"), "--clips", "1") == cli.EXIT_USAGE
    monkeypatch.setenv("CLIPVID_PRECISION", "64")
    assert run("gen", "--out", str(tmp_path / "y"), "--clips", "1",
               "--frame-size", "16", "--frames", "2") == 0
