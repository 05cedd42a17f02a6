import filecmp
import os

import numpy as np
import pytest

from clipvid import cli


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
backbone_stride=4
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
    first = float(lines[0].split(",")[1])
    last = float(lines[-1].split(",")[1])
    assert last < first
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


def test_eval_oracle_detections_pipe(dataset, tmp_path):
    assert run("eval", "--data", dataset, "--variant", "oracle_detections",
               "--out", str(tmp_path / "orc")) == 0
    text = (tmp_path / "orc.report.txt").read_text()
    line = [l for l in text.splitlines() if l.startswith("map=")][0]
    assert float(line.split("=")[1]) == pytest.approx(1.0)


def test_eval_config_mismatch_names_field(dataset, micro_cfg_path, tmp_path):
    ckpt = tmp_path / "mm.ckpt"
    assert run("train", "--data", dataset, "--stage", "1",
               "--config", micro_cfg_path, "--ckpt-out", str(ckpt),
               "--seed", "0", "--iters", "3") == 0
    sidecar = str(ckpt) + ".config.txt"
    text = open(sidecar).read().replace("dim=8", "dim=16")
    open(sidecar, "w").write(text)
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
    (lambda text: text + "fixed_queries=yes\n", ("'fixed_queries'", "'yes'")),
], ids=["unknown_key", "bad_boolean"])
def test_train_malformed_config_is_usage_error(dataset, tmp_path, capsys, edit, names):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(edit(MICRO_CFG))
    code = run("train", "--data", dataset, "--stage", "1", "--config", str(cfg),
               "--ckpt-out", str(tmp_path / "x.ckpt"), "--iters", "1")
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert all(name in err for name in names)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_diverging_lr_is_numeric_error(dataset, micro_cfg_path, tmp_path, capsys):
    code = run("train", "--data", dataset, "--stage", "1", "--config", micro_cfg_path,
               "--ckpt-out", str(tmp_path / "x.ckpt"), "--iters", "3", "--lr", "1e30")
    assert code == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "numeric error" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("train", "--stage", "1", "--ckpt-out", "x.ckpt", "--batch", "0"),
    ("ablate", "--ckpt", "x.ckpt", "--out", "t.csv", "--grid", "topk=x"),
], ids=["batch_zero", "grid_not_int"])
def test_bad_argument_value_is_usage_error(dataset, capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    assert run(*argv, "--data", dataset) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


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
    code = run("eval", "--data", str(tmp_path / "nope"), "--variant",
               "oracle_detections", "--out", str(tmp_path / "x"))
    assert code == cli.EXIT_IO


def test_usage_error_exit_code():
    assert run("train", "--data") == cli.EXIT_USAGE
    assert run("nonsense") == cli.EXIT_USAGE


def test_gradcheck_cli_pass_and_corruption(capsys):
    assert run("gradcheck", "--seed", "0") == 0
    out = capsys.readouterr().out
    assert out.count("ok") >= 12
    assert run("gradcheck", "--seed", "0", "--corrupt-op", "matmul") \
        == cli.EXIT_CHECK
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
