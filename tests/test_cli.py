import filecmp
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from clipvid import cli, gradcheck_suite
from oracles import corrupt_adjoint


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
    from clipvid import synthvid as sv
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
    assert manifest[1] == "clips=10"
    assert sum(1 for l in manifest if l.startswith("clip ")) == 10


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
    assert run("train", "--data", dataset, "--stage", "1", "--variant", "no_ica",
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
        assert run("train", "--data", dataset, "--stage", "1",
                   "--config", micro_cfg_path, "--ckpt-out", str(ckpt),
                   "--seed", "9", "--iters", "8") == 0
        logs.append((tmp_path / f"{name}.ckpt.log").read_bytes())
    assert logs[0] == logs[1]
    assert filecmp.cmp(tmp_path / "a.ckpt", tmp_path / "b.ckpt", shallow=False)


def test_train_stage2_requires_checkpoint(dataset, micro_cfg_path, tmp_path):
    code = run("train", "--data", dataset, "--stage", "2",
               "--config", micro_cfg_path,
               "--ckpt-out", str(tmp_path / "x.ckpt"))
    assert code == cli.EXIT_USAGE


def test_train_then_stage2_then_eval(dataset, micro_cfg_path, tmp_path):
    s1 = tmp_path / "s1.ckpt"
    s2 = tmp_path / "s2.ckpt"
    assert run("train", "--data", dataset, "--stage", "1",
               "--config", micro_cfg_path, "--ckpt-out", str(s1),
               "--seed", "0", "--iters", "10") == 0
    assert run("train", "--data", dataset, "--stage", "2",
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
               "--dump-matches", str(tmp_path / "absent" / "matches.txt")) == cli.EXIT_IO

    # oracle aggregation and aggregation-off variants run on the same ckpt
    assert run("eval", "--data", dataset, "--ckpt", str(s2),
               "--out", str(tmp_path / "r2"), "--variant", "oracle_ica",
               "--frames", "2") == 0
    assert run("eval", "--data", dataset, "--ckpt", str(s2),
               "--out", str(tmp_path / "r3"), "--variant", "no_ica",
               "--frames", "2") == 0


def test_eval_deterministic(dataset, micro_cfg_path, tmp_path):
    ckpt = tmp_path / "d.ckpt"
    assert run("train", "--data", dataset, "--stage", "1",
               "--config", micro_cfg_path, "--ckpt-out", str(ckpt),
               "--seed", "4", "--iters", "5") == 0
    for name in ("r1", "r2"):
        assert run("eval", "--data", dataset, "--ckpt", str(ckpt),
                   "--out", str(tmp_path / name), "--frames", "3") == 0
    assert (tmp_path / "r1.report.txt").read_bytes() \
        == (tmp_path / "r2.report.txt").read_bytes()


def test_eval_config_mismatch_names_field(dataset, micro_cfg_path, tmp_path):
    ckpt = tmp_path / "mm.ckpt"
    assert run("train", "--data", dataset, "--stage", "1",
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
    code = run("train", "--data", dataset, "--stage", "1", "--config", str(cfg),
               "--ckpt-out", str(tmp_path / "x.ckpt"))
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "'dim'" in err and "'abc'" in err


@pytest.mark.parametrize("edit, names", [
    (lambda text: text.replace("dim=8", "dimm=8"), ("'dimm'",)),
    (lambda text: text + "fixed_queries=False\n", ("unknown field 'fixed_queries'",)),
    (lambda text: text + "backbone_stride=4\n", ("unknown field 'backbone_stride'",)),
], ids=["unknown_key", "bad_boolean", "stride_disagrees_with_channels"])
def test_train_malformed_config_is_usage_error(dataset, tmp_path, capsys, edit, names):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(edit(MICRO_CFG))
    code = run("train", "--data", dataset, "--stage", "1", "--config", str(cfg),
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
    code = run("train", "--data", dataset, "--stage", "1", "--config", str(cfg),
               "--ckpt-out", str(tmp_path / "x.ckpt"), "--iters", "1")
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err
    assert not (tmp_path / "x.ckpt").exists()


def with_class(src, dst, class_id):
    """Copy the dataset at src to dst with every track, and each of its box
    records, set to class_id (the class is field 3 of both records)."""
    shutil.copytree(src, dst)
    ann = Path(dst, "annotations.txt")
    lines = [l.split() for l in ann.read_text().splitlines()]
    lines = [" ".join(f[:3] + [str(class_id)] + f[4:] if f[0] in ("track", "box") else f)
             for f in lines]
    ann.write_text("\n".join(lines) + "\n")
    return str(dst)


def test_train_class_out_of_range_is_input_error(dataset, micro_cfg_path, tmp_path, capsys):
    data = with_class(dataset, tmp_path / "ds", 7)
    code = run("train", "--data", data, "--stage", "1", "--config", micro_cfg_path,
               "--ckpt-out", str(tmp_path / "x.ckpt"), "--iters", "1")
    assert code == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert "input error" in err and "class 7" in err and "Traceback" not in err
    assert not (tmp_path / "x.ckpt").exists()


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


def test_ablate_class_out_of_range_is_input_error(dataset, trained_ckpt, tmp_path, capsys,
                                                  monkeypatch):
    class_7_exits_before_inference(["ablate", "--grid", "topk=1"], dataset, trained_ckpt,
                                   tmp_path, capsys, monkeypatch)


def test_train_more_objects_than_queries_is_capacity_error(micro_cfg_path, tmp_path, capsys):
    data = str(tmp_path / "crowd")
    assert run("gen", "--out", data, "--clips", "2", "--seed", "1", "--frames", "2",
               "--frame-size", "32", "--min-objects", "12", "--max-objects", "12") == 0
    code = run("train", "--data", data, "--stage", "1", "--config", micro_cfg_path,
               "--ckpt-out", str(tmp_path / "x.ckpt"), "--iters", "1")
    assert code == cli.EXIT_CAPACITY
    err = capsys.readouterr().err
    assert "capacity error" in err and "4 prediction slots" in err and "Traceback" not in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_diverging_lr_is_numeric_error(dataset, micro_cfg_path, tmp_path, capsys):
    code = run("train", "--data", dataset, "--stage", "1", "--config", micro_cfg_path,
               "--ckpt-out", str(tmp_path / "x.ckpt"), "--iters", "3", "--lr", "1e30")
    assert code == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "numeric error" in err and "Traceback" not in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_step_to_non_finite_parameters_writes_no_checkpoint(dataset, micro_cfg_path,
                                                                   tmp_path, capsys):
    """A step that leaves a parameter inf or NaN stops the run at that
    iteration, before any checkpoint is written."""
    code = run("train", "--data", dataset, "--stage", "1", "--config", micro_cfg_path,
               "--ckpt-out", str(tmp_path / "x.ckpt"), "--iters", "1", "--lr", "1e39")
    assert code == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert re.search(r"iteration 0: parameter '[\w.]+' is not finite", err)
    assert "Traceback" not in err and not list(tmp_path.glob("*.ckpt"))


@pytest.mark.parametrize("argv", [
    ("train", "--stage", "1", "--ckpt-out", "x.ckpt", "--batch", "0"),
    ("ablate", "--ckpt", "x.ckpt", "--out", "t.csv", "--grid", "topk=x"),
    ("train", "--stage", "1", "--ckpt-out", "x.ckpt", "--seed", "-1"),
    ("train", "--stage", "1", "--ckpt-out", "x.ckpt", "--iters", "-3"),
    ("train", "--stage", "1", "--ckpt-out", "x.ckpt", "--lr", "nan"),
    ("train", "--stage", "1", "--ckpt-out", "x.ckpt", "--lr", "inf"),
], ids=["batch_zero", "grid_not_int", "seed_negative", "iters_negative", "lr_nan", "lr_inf"])
def test_bad_argument_value_is_usage_error(dataset, capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    assert run(*argv, "--data", dataset) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.fixture(scope="module")
def trained_ckpt(dataset, micro_cfg_path, tmp_path_factory):
    ckpt = tmp_path_factory.mktemp("ckpt") / "k.ckpt"
    assert run("train", "--data", dataset, "--stage", "1", "--config", micro_cfg_path,
               "--ckpt-out", str(ckpt), "--iters", "1") == 0
    return str(ckpt)


@pytest.mark.parametrize("argv", [
    ("ablate", "--grid", "topk=-1"),
    ("ablate", "--grid", "topk=2,0"),
    ("ablate", "--grid", "frames=0"),
    ("ablate", "--grid", "ica_layers=-1"),
    ("ablate", "--grid", "topk=1", "--grid", "topk=2"),
    ("eval", "--topk", "0"),
    ("eval", "--frames", "0"),
    ("eval", "--frames", "-2"),
    ("eval", "--topk", "5"),
], ids=["ablate_topk_negative", "ablate_topk_zero", "ablate_frames_zero",
        "ablate_ica_layers_negative", "ablate_knob_repeated", "eval_topk_zero",
        "eval_frames_zero", "eval_frames_negative", "eval_topk_above_queries"])
def test_out_of_range_inference_knob_is_usage_error(dataset, trained_ckpt, capsys,
                                                     tmp_path, argv):
    code = run(*argv, "--data", dataset, "--ckpt", trained_ckpt,
               "--out", str(tmp_path / "r"))
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not list(tmp_path.glob("r*"))


@pytest.mark.parametrize("argv", [
    ("train", "--stage", "1", "--ckpt-out", "x.ckpt"),
    ("eval", "--ckpt", "CKPT", "--out", "r"),
    ("ablate", "--ckpt", "CKPT", "--out", "r", "--grid", "topk=1"),
], ids=["train", "eval", "ablate"])
def test_empty_dataset_is_usage_error(trained_ckpt, capsys, monkeypatch, tmp_path, argv):
    """A dataset without clips is refused before anything is written, not
    scored as map=0."""
    monkeypatch.chdir(tmp_path)
    assert run("gen", "--out", "empty", "--clips", "0") == 0
    argv = [trained_ckpt if a == "CKPT" else a for a in argv]
    assert run(*argv, "--data", "empty") == cli.EXIT_USAGE
    assert "error: empty dataset" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["empty"]


@pytest.mark.parametrize("grid,limit", [
    ("topk=2,99", "topk 99 exceeds queries 4"),
    ("ica_layers=0,5", "ica_layers 5 exceeds checkpoint ICA layers 1"),
], ids=["topk_above_queries", "ica_layers_above_checkpoint"])
def test_ablate_knob_above_checkpoint_is_usage_error(dataset, trained_ckpt, capsys,
                                                      tmp_path, grid, limit):
    """A cell the checkpoint cannot run is refused, not run at a lower
    value under the requested label."""
    code = run("ablate", "--grid", grid, "--data", dataset, "--ckpt", trained_ckpt,
               "--out", str(tmp_path / "r"))
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert limit in err and "Traceback" not in err
    assert not list(tmp_path.glob("r*"))


def read_snapshot(path) -> dict[str, str]:
    return dict(line.split("=", 1) for line in Path(path).read_text().splitlines())


def test_run_snapshots_record_precision_and_topk(dataset, micro_cfg_path, trained_ckpt,
                                                 tmp_path, monkeypatch):
    """Every run snapshot records the float precision, and eval's the
    aggregation top-k it ran with: both change the outputs."""
    monkeypatch.setenv("CLIPVID_PRECISION", "64")
    assert run("train", "--data", dataset, "--stage", "2", "--config", micro_cfg_path,
               "--ckpt-in", trained_ckpt, "--ckpt-out", str(tmp_path / "s2.ckpt"),
               "--iters", "1") == 0
    assert run("eval", "--data", dataset, "--ckpt", trained_ckpt, "--topk", "1",
               "--out", str(tmp_path / "e")) == 0
    assert run("ablate", "--grid", "frames=2", "--data", dataset, "--ckpt", trained_ckpt,
               "--out", str(tmp_path / "a.csv")) == 0
    snapshots = [read_snapshot(tmp_path / name)
                 for name in ("s2.ckpt.run.txt", "e.run.txt", "a.csv.run.txt")]
    assert [s["precision"] for s in snapshots] == ["64"] * 3
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
def test_stage2_config_checked_against_checkpoint(dataset, trained_ckpt, tmp_path, capsys,
                                                  edit, code):
    """The head count changes no tensor shape, so only the sidecar check
    sees it; the score threshold is a run setting and may differ."""
    cfg = tmp_path / "s2.cfg"
    cfg.write_text(edit(MICRO_CFG))
    assert run("train", "--data", dataset, "--stage", "2", "--config", str(cfg),
               "--ckpt-in", trained_ckpt, "--ckpt-out", str(tmp_path / "s2.ckpt"),
               "--iters", "1") == code
    if code:
        assert "'heads'" in capsys.readouterr().err


def test_stage2_without_config_uses_the_checkpoint_sidecar(dataset, trained_ckpt, tmp_path):
    """Without --config, stage 2 trains with the config the --ckpt-in
    checkpoint was built with (its sidecar), as eval does, not desk scale."""
    s2 = tmp_path / "s2.ckpt"
    assert run("train", "--data", dataset, "--stage", "2", "--ckpt-in", trained_ckpt,
               "--ckpt-out", str(s2), "--iters", "1") == cli.EXIT_OK
    with open(trained_ckpt + ".config.txt") as fh:
        assert (tmp_path / "s2.ckpt.config.txt").read_text() == fh.read()


@pytest.mark.parametrize("argv, window", [
    (("eval",), [4, 2]),
    (("eval", "--frames", "5"), [5, 1]),
    (("ablate", "--grid", "frames=3"), [3]),
], ids=["eval_config", "eval_frames", "ablate_frames"])
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


def test_ablate_loads_checkpoint_once(dataset, trained_ckpt, monkeypatch, tmp_path):
    loads = []
    real = cli._load_params
    monkeypatch.setattr(cli, "_load_params", lambda *a: loads.append(a) or real(*a))
    assert run("ablate", "--grid", "topk=1,2", "--grid", "ica_layers=0,1", "--data", dataset,
               "--ckpt", trained_ckpt, "--out", str(tmp_path / "t.csv")) == 0
    assert len(loads) == 1
    assert len((tmp_path / "t.csv").read_text().splitlines()) == 5


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
    from clipvid.checkpoint import save_checkpoint
    ckpt = tmp_path / "bad.ckpt"
    save_checkpoint({"ab": np.zeros(2)}, str(ckpt))
    blob = bytearray(ckpt.read_bytes())
    name_at = 4 + 9 + 2                  # magic, header, name length
    blob[name_at] = 0xFF
    ckpt.write_bytes(bytes(blob))
    for argv in (("eval",), ("ablate", "--grid", "topk=1")):
        code = run(*argv, "--data", dataset, "--ckpt", str(ckpt), "--out", str(tmp_path / "r"))
        assert code == cli.EXIT_IO
        assert f"offset {name_at}" in capsys.readouterr().err


def test_eval_missing_data_is_io_error(tmp_path):
    code = run("eval", "--data", str(tmp_path / "nope"), "--ckpt", "x",
               "--out", str(tmp_path / "x"))
    assert code == cli.EXIT_IO


@pytest.mark.parametrize("config, ckpt_out", [
    ("missing.cfg", "x.ckpt"),
    (None, "file/sub/x.ckpt"),
], ids=["config_missing", "ckpt_out_under_a_file"])
def test_train_unreadable_or_unwritable_path_is_io_error(dataset, micro_cfg_path, capsys,
                                                         monkeypatch, tmp_path, config,
                                                         ckpt_out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("")
    code = run("train", "--data", dataset, "--stage", "1", "--iters", "1",
               "--config", config or micro_cfg_path, "--ckpt-out", ckpt_out)
    assert code == cli.EXIT_IO
    err = capsys.readouterr().err
    assert "I/O error:" in err and "Traceback" not in err


def test_usage_error_exit_code():
    assert run("train", "--data") == cli.EXIT_USAGE
    assert run("nonsense") == cli.EXIT_USAGE
    assert run("gradcheck", "--seed", "-1") == cli.EXIT_USAGE


@pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf", "-inf"])
def test_gradcheck_tol_must_be_finite_and_positive(capsys, monkeypatch, tol):
    """A tolerance every check fails, or one any finite error passes, is a
    usage error before any check runs."""
    monkeypatch.setattr(gradcheck_suite, "run_suite", lambda *a: pytest.fail("checks ran"))
    assert run("gradcheck", f"--tol={tol}") == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "--tol must be finite and positive" in err and "Traceback" not in err


def test_gradcheck_cli_pass_and_corruption(capsys, monkeypatch):
    assert run("gradcheck", "--seed", "0") == 0
    out = capsys.readouterr().out
    assert out.count("ok") >= 12 and "0 failed" in out
    # The primitive checks alone catch a broken adjoint; the model check
    # would only repeat the verdict.
    corrupt_adjoint(monkeypatch, "matmul")
    monkeypatch.setattr(gradcheck_suite, "model_checks", lambda seed, tol: [])
    assert run("gradcheck", "--seed", "0") == cli.EXIT_CHECK
    out = capsys.readouterr().out
    assert "FAIL" in out and "matmul" in out


def test_ablate_grid(dataset, micro_cfg_path, tmp_path):
    ckpt = tmp_path / "a.ckpt"
    assert run("train", "--data", dataset, "--stage", "1",
               "--config", micro_cfg_path, "--ckpt-out", str(ckpt),
               "--seed", "0", "--iters", "3") == 0
    table = tmp_path / "grid.csv"
    assert run("ablate", "--data", dataset, "--ckpt", str(ckpt),
               "--grid", "topk=1,2,4", "--out", str(table)) == 0
    rows = table.read_text().splitlines()
    assert len(rows) == 4           # header + 3 cells
    assert rows[0].startswith("topk,")


def test_ablate_empty_grid_usage_error(dataset, tmp_path):
    assert run("ablate", "--data", dataset, "--ckpt", "x",
               "--out", str(tmp_path / "t.csv")) == cli.EXIT_USAGE


def test_precision_env_override(dataset, monkeypatch, tmp_path):
    monkeypatch.setenv("CLIPVID_PRECISION", "banana")
    assert run("gen", "--out", str(tmp_path / "x"), "--clips", "1") == cli.EXIT_USAGE
    monkeypatch.setenv("CLIPVID_PRECISION", "64")
    assert run("gen", "--out", str(tmp_path / "y"), "--clips", "1",
               "--frame-size", "16", "--frames", "2") == 0
