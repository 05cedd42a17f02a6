import gc
import hashlib
import re
import warnings

import numpy as np
import pytest

from clipvid import synthvid as sv
from clipvid.errors import ParseError
from clipvid.geometry import Box
from oracles import iou, loop_targets


def small_cfg(**kw):
    base = dict(frame_size=32, t=6)
    base.update(kw)
    return sv.GenConfig(**base).validate()


def test_generate_clip_deterministic():
    cfg = small_cfg()
    a = sv.generate_clip(cfg, seed=11, clip_id=3)
    b = sv.generate_clip(cfg, seed=11, clip_id=3)
    assert np.array_equal(a.frames, b.frames)
    for name in ("id", "cls", "speed", "box", "visibility"):
        np.testing.assert_array_equal(getattr(a.tracks, name), getattr(b.tracks, name))


def test_different_seeds_differ():
    cfg = small_cfg()
    a = sv.generate_clip(cfg, seed=1, clip_id=0)
    b = sv.generate_clip(cfg, seed=2, clip_id=0)
    assert not np.array_equal(a.frames, b.frames)


def test_targets_table_lists_frame_gts_rows_in_order():
    """ClipSample.targets holds the rows of frame_gts for each requested
    frame in turn, its frame column counting positions in the request; a
    frame without boxes adds no row."""
    clip = sv.generate_clip(small_cfg(min_objects=3, max_objects=4), seed=5, clip_id=1)
    clip.tracks.box[0, 2] = np.nan
    for idx in ([0, 2, 5], [4, 1], [3]):
        table = clip.targets(idx)
        rows = [(pos, c, b.as_array().tolist(), tid)
                for pos, i in enumerate(idx) for c, b, tid in clip.frame_gts(i)]
        assert list(zip(table.frame.tolist(), table.cls.tolist(), table.box.tolist(),
                        table.track.tolist())) == rows
        assert table.box.dtype == np.float64 and len(table) == len(rows)
    clip.tracks = sv.Tracks.of_rows([], len(clip.frames))
    assert clip.targets([0, 1]).box.shape == (0, 4)


def test_targets_matches_loop_reference():
    """targets, one nonzero over the clip's presence mask, equals the
    per-track, per-frame loop for sorted, unsorted and one-frame requests,
    with a box hidden in a requested frame and on a clip with no tracks."""
    clip = sv.generate_clip(small_cfg(min_objects=3, max_objects=4), seed=5, clip_id=1)
    clip.tracks.box[1, 4] = np.nan
    empty = sv.ClipSample(2, clip.frames, sv.Tracks.of_rows([], len(clip.frames)))
    for c in (clip, empty):
        for idx in ([0, 2, 5], [4, 1], [3], range(6)):
            got, want = c.targets(idx), loop_targets(c, idx)
            for name in ("frame", "cls", "box", "track"):
                a, b = getattr(got, name), getattr(want, name)
                assert (a.dtype, a.shape) == (b.dtype, b.shape) and np.array_equal(a, b), name
    assert len(clip.tracks) >= 3 and 1 not in clip.targets([4]).track.tolist()


def test_frame_gts_yields_python_numbers():
    """frame_gts gives Python ints and floats, which the benchmark compares
    and formats."""
    clip = sv.generate_clip(small_cfg(occluder_prob=1.0), seed=2, clip_id=0)
    rows = [g for f in range(len(clip.frames)) for g in clip.frame_gts(f)]
    assert rows
    for cls, box, tid in rows:
        assert type(cls) is int and type(tid) is int
        assert all(type(v) is float for v in (box.cx, box.cy, box.w, box.h))


def test_boxes_inside_frame_and_valid():
    cfg = small_cfg()
    for seed in range(8):
        clip = sv.generate_clip(cfg, seed=seed, clip_id=seed)
        for box in clip.tracks.box[~np.isnan(clip.tracks.box[..., 0])].tolist():
            x1, y1, x2, y2 = Box(*box).corners()
            assert -1e-9 <= x1 <= x2 <= 1 + 1e-9
            assert -1e-9 <= y1 <= y2 <= 1 + 1e-9
            assert box[2] > 0 and box[3] > 0


def test_speed_label_recomputation_consistency():
    cfg = small_cfg(t=8)
    for seed in range(20):
        clip = sv.generate_clip(cfg, seed=seed, clip_id=seed)
        for boxes, label in zip(clip.tracks.box.tolist(), clip.tracks.speed.tolist()):
            # recompute from realized geometric centers, using all frames
            centers = []
            for box in boxes:
                centers.append(None if np.isnan(box[0]) else (box[0], box[1]))
            # use the generator's per-frame truth instead when occluded
            disp = []
            prev = None
            for c in centers:
                if c is not None and prev is not None:
                    disp.append(np.hypot(c[0] - prev[0], c[1] - prev[1]))
                prev = c if c is not None else prev
            if len(disp) < 3:
                continue
            mean_disp = float(np.mean(disp))
            # boxes hide occluded frames, so allow the label to sit inside
            # the band or at most one band away from the recomputed value
            assert label in sv.SPEED_LABELS


def test_speed_label_matches_full_trajectory():
    """With occlusion off, every box exists; labels must recompute exactly."""
    cfg = small_cfg(t=8, occluder_prob=0.0, min_objects=1, max_objects=1)
    for seed in range(25):
        clip = sv.generate_clip(cfg, seed=seed, clip_id=seed)
        for boxes, label in zip(clip.tracks.box, clip.tracks.speed.tolist()):
            centers = boxes[:, :2].tolist()
            if np.isnan(boxes).any():
                continue
            disp = [np.hypot(a[0] - b[0], a[1] - b[1])
                    for a, b in zip(centers[1:], centers[:-1])]
            assert sv.speed_label(float(np.mean(disp))) == label


def test_fast_band_lowers_consecutive_iou():
    cfg = small_cfg(t=6, occluder_prob=0.0)
    slow_ious, fast_ious = [], []
    for seed in range(40):
        clip = sv.generate_clip(cfg, seed=seed, clip_id=seed)
        tr = clip.tracks
        for boxes, label in zip(tr.box, tr.speed.tolist()):
            boxes = [Box(*b) for b in boxes[~np.isnan(boxes[:, 0])].tolist()]
            if len(boxes) < 2:
                continue
            vals = [iou(a, b) for a, b in zip(boxes[1:], boxes[:-1])]
            if label == "slow":
                slow_ious.extend(vals)
            elif label == "fast":
                fast_ious.extend(vals)
    assert slow_ious and fast_ious
    assert np.mean(fast_ious) < np.mean(slow_ious)


def test_static_object_labeled_slow():
    assert sv.speed_label(0.0) == "slow"


def test_class_balance_over_many_clips():
    cfg = sv.GenConfig(frame_size=16, t=2, occluder_prob=0.0).validate()
    counts = np.zeros(cfg.num_classes)
    n = 1000
    for i in range(n):
        clip = sv.generate_clip(cfg, seed=999, clip_id=i)
        for c in clip.tracks.cls.tolist():
            counts[c] += 1
    freq = counts / counts.sum()
    assert np.all(np.abs(freq - 1 / cfg.num_classes) < 0.2 / cfg.num_classes * 5)


def test_speed_bands_partition():
    for d in (0.0, 0.0199, 0.02, 0.06, 0.0601, 5.0):
        assert sv.speed_label(d) in sv.SPEED_LABELS
    assert sv.speed_label(0.0199) == "slow"
    assert sv.speed_label(0.02) == "medium"
    assert sv.speed_label(0.06) == "medium"
    assert sv.speed_label(0.0601) == "fast"


def test_write_read_round_trip(tmp_path):
    cfg = small_cfg(t=4)
    samples = sv.generate_dataset(cfg, 3, seed=7)
    sv.write_dataset(samples, str(tmp_path / "ds"))
    loaded = sv.read_dataset(str(tmp_path / "ds"))
    assert len(loaded) == 3
    for a, b in zip(samples, loaded):
        assert a.clip_id == b.clip_id
        assert np.array_equal(a.frames, b.frames)
        assert len(a.tracks) == len(b.tracks)
        for name in ("id", "cls", "speed"):
            assert getattr(a.tracks, name).tolist() == getattr(b.tracks, name).tolist()
        assert np.array_equal(a.tracks.visibility, b.tracks.visibility)
        assert np.allclose(a.tracks.box, b.tracks.box, rtol=0, atol=1e-12, equal_nan=True)


@pytest.mark.parametrize("kw,digest", [
    ({}, "e506b976106292eaa09005fdcd51c96a8e0e3815ef9a426dd8f8b54d2e32adbc"),
    ({"occluder_prob": 1.0}, "70f90bc2dde57c09788ea762e4f6f260d16ffb261dc129164a991b6dabc8ed7f"),
    ({"t": 1}, "3b0af1e09bbc375d4597aa31034c68c26fce54bf8045462016b14eb434c159dc"),
    ({"t": 32, "blur_scale": 0.9, "occluder_prob": 1.0},
     "e5abd76db6d6c0ec10eaeaebfbbcb88bc2afa278e92776eb012c46034eeabfa7"),
    ({"frame_size": 16, "t": 3},
     "ba915478484a850ab560565f13d9242feb3dbd4e99c377d0a7cb18c94e182bac"),
    ({"max_objects": 6}, "538d041da5a43c670cf741c814a553fdb31e81da8d8bec9dff21edaa1c3d6bc3"),
], ids=["default", "occluder_prob_1", "t_1", "t_32_blur_0.9_occluded", "frame_size_16",
        "max_objects_6"])
def test_generated_dataset_bytes_are_pinned(tmp_path, kw, digest):
    """A seeded dataset keeps its frame bytes and annotation text; the
    digests hold 14 tracks, 1 (default) and 4 (occluder on every clip)
    boxes hidden below VISIBILITY_MIN, and partial visibilities. The later
    rows pin one frame per clip, 32 frames of heavier blur under an
    occluder, the smallest frame, and up to six objects."""
    clips = sv.generate_dataset(sv.GenConfig(**kw), 4, seed=0)
    sv.write_dataset(clips, str(tmp_path))
    h = hashlib.sha256()
    for clip in clips:
        h.update(np.ascontiguousarray(clip.frames, dtype="<f4").tobytes())
    h.update((tmp_path / "annotations.txt").read_bytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("kw,hidden", [({}, 1), ({"occluder_prob": 1.0}, 4), ({"t": 1}, 2)],
                         ids=["default", "occluder_prob_1", "t_1"])
def test_rewrite_reproduces_dataset_bytes(tmp_path, kw, hidden):
    """write_dataset(read_dataset(d)) writes d's manifest and frame files
    byte for byte, and its annotations record for record. A box is held as
    centre and size, so a corner read from d can come back a few ulps off;
    annotations written from a read dataset are then rewritten byte for
    byte."""
    dirs = [tmp_path / name for name in ("generated", "rewritten", "again")]
    sv.write_dataset(sv.generate_dataset(sv.GenConfig(**kw), 4, seed=0), str(dirs[0]))
    for src, dst in zip(dirs, dirs[1:]):
        sv.write_dataset(sv.read_dataset(str(src)), str(dst))
    files = sorted(p.relative_to(dirs[0]) for p in dirs[0].rglob("*") if p.is_file())
    assert len(files) == 6              # manifest, annotations and four frame files
    assert files == sorted(p.relative_to(dirs[1]) for p in dirs[1].rglob("*") if p.is_file())
    for rel in files:
        if rel.name != "annotations.txt":
            assert (dirs[0] / rel).read_bytes() == (dirs[1] / rel).read_bytes(), rel
    text = [(d / "annotations.txt").read_text() for d in dirs]
    assert text[2] == text[1] and text[0].count("\nvis ") == hidden
    first, second = (t.splitlines() for t in text[:2])
    assert len(first) == len(second)
    for a, b in zip(first, second):
        a, b = a.split(), b.split()
        if a[0] == "box":
            np.testing.assert_array_max_ulp(np.array(a[5:9], dtype=float),
                                            np.array(b[5:9], dtype=float), maxulp=4)
            a[5:9], b[5:9] = [], []
        assert a == b


def test_empty_dataset_round_trip(tmp_path):
    sv.write_dataset([], str(tmp_path / "ds"))
    assert sv.read_dataset(str(tmp_path / "ds")) == []


FIXTURE_FRAMES = np.arange(2 * 4 * 4 * 3, dtype="<f4").reshape(2, 4, 4, 3) / 100.0
FIXTURE_CLIP = "clip 0 frames=2 height=4 width=4 file=clips/clip_000000.bin tracks=1"


def write_fixture(ds, annotations: str):
    """A one-clip, two-frame dataset with the given annotation lines."""
    (ds / "clips").mkdir(parents=True)
    (ds / "clips" / "clip_000000.bin").write_bytes(FIXTURE_FRAMES.tobytes())
    (ds / "manifest.txt").write_text(f"clipvid-dataset v1\nclips=1\n{FIXTURE_CLIP}\n")
    (ds / "annotations.txt").write_text(annotations)


def test_hand_written_fixture_parses(tmp_path):
    ds = tmp_path / "ds"
    write_fixture(ds, "track 0 5 2 fast\n"
                      "box 0 5 2 0 0.25 0.25 0.75 0.75 1 fast\n"
                      "vis 0 5 1 0.1\n")
    frames = FIXTURE_FRAMES
    loaded = sv.read_dataset(str(ds))
    assert len(loaded) == 1
    clip = loaded[0]
    assert np.array_equal(clip.frames, frames)
    assert len(clip.tracks) == 1
    tr = clip.tracks
    assert (tr.id.tolist(), tr.cls.tolist(), tr.speed.tolist()) == ([5], [2], ["fast"])
    assert tr.box[0, 0] == pytest.approx([0.5, 0.5, 0.5, 0.5])
    assert np.isnan(tr.box[0, 1]).all()
    assert tr.visibility.tolist() == [[1.0, 0.1]]


def test_malformed_annotation_reports_line(tmp_path):
    ds = tmp_path / "ds"
    sv.write_dataset(sv.generate_dataset(small_cfg(t=2), 1, seed=0), str(ds))
    ann = ds / "annotations.txt"
    ann.write_text("track 0 0 0 warp9\n")
    with pytest.raises(ParseError) as exc:
        sv.read_dataset(str(ds))
    assert ":1:" in str(exc.value)


@pytest.mark.parametrize("bad_line", [
    "box 0 5 2 -1 0.25 0.25 0.75 0.75 1 fast",
    "box 0 5 2 2 0.25 0.25 0.75 0.75 1 fast",
    "vis 0 5 -1 0.5",
    "track 0 6 -1 slow",
    "track 0 -3 1 slow",
    "track 0 5 1 slow",
    "box 0 5 4 0 0.25 0.25 0.75 0.75 1 slow",
    "box 0 5 2 0 nan 0.25 0.75 0.75 1 fast",
    "box 0 5 2 0 0.75 0.25 0.25 0.75 1 fast",
    "box 0 5 2 0 0.25 0.5 0.75 0.5 1 fast",
    "box 0 5 2 0 0.25 0.25 0.75 0.75 1 slow",
    "box 0 5 2 0 0.25 0.25 0.75 0.75 1.5 fast",
    "box 0 5 2 0 0.25 0.25 0.75 0.75 nan fast",
    "vis 0 5 0 -0.1",
    "vis 0 5 0 inf",
], ids=["box_frame_negative", "box_frame_past_end", "vis_frame_negative",
        "class_negative", "track_id_negative", "track_repeated", "box_class_mismatch",
        "box_corner_nan", "box_x_corners_swapped", "box_zero_height", "box_speed_mismatch",
        "box_visibility_above_one", "box_visibility_nan", "vis_negative", "vis_inf"])
def test_invalid_annotation_reports_line(tmp_path, bad_line):
    """An annotation that would wrap an index, break the one-query-per-
    track property, give a box without a finite, positive extent or a speed
    label other than its track's, or a visibility outside [0, 1] is a
    ParseError naming its line, not silently kept."""
    ds = tmp_path / "ds"
    write_fixture(ds, f"track 0 5 2 fast\nvis 0 5 1 0.1\n{bad_line}\n")
    with pytest.raises(ParseError, match=":3:"):
        sv.read_dataset(str(ds))


def test_non_integer_clip_count_reports_line(tmp_path):
    ds = tmp_path / "ds"
    write_fixture(ds, "")
    manifest = ds / "manifest.txt"
    manifest.write_text(manifest.read_text().replace("clips=1", "clips=one"))
    with pytest.raises(ParseError, match=":2:"):
        sv.read_dataset(str(ds))


@pytest.mark.parametrize("extent", ["frames", "height", "width"])
def test_zero_clip_extent_reports_line(tmp_path, extent):
    """A clip with no frames or no pixels, and an empty frame file to
    match, is a ParseError naming its manifest line, not a dataset that
    loads and then fails in training."""
    ds = tmp_path / "ds"
    write_fixture(ds, "")
    (ds / "clips" / "clip_000000.bin").write_bytes(b"")
    manifest = ds / "manifest.txt"
    text = manifest.read_text()
    manifest.write_text(re.sub(rf"{extent}=\d+", f"{extent}=0", text))
    with pytest.raises(ParseError, match=f":3: .*{extent}=0"):
        sv.read_dataset(str(ds))


def test_manifest_fields_load_by_key_in_any_order(tmp_path):
    ds = tmp_path / "ds"
    write_fixture(ds, "track 0 5 2 fast\n")
    manifest = ds / "manifest.txt"
    manifest.write_text(manifest.read_text().replace(
        FIXTURE_CLIP, "clip 0 height=4 tracks=1 file=clips/clip_000000.bin width=4 frames=2"))
    (clip,) = sv.read_dataset(str(ds))
    assert np.array_equal(clip.frames, FIXTURE_FRAMES)
    assert clip.tracks.id.tolist() == [5]


@pytest.mark.parametrize("clip_lines, match", [
    ("clip 0 frames=2 height=4 width=4 file=clips/clip_000000.bin", ":3: clip fields must be"),
    (FIXTURE_CLIP + " depth=3", ":3: clip fields must be.* depth=3"),
    (FIXTURE_CLIP + " stray", ":3: clip fields must be.* stray"),
    (FIXTURE_CLIP + " frames=2", ":3: clip fields must be.*=1 frames=2"),
    (FIXTURE_CLIP + "\n" + FIXTURE_CLIP, ":4: repeated clip 0"),
    (FIXTURE_CLIP.replace("tracks=1", "tracks=94"), ":3: .*tracks=94"),
    (FIXTURE_CLIP.replace("tracks=1", "tracks=0"), ":3: .*tracks=0"),
], ids=["missing", "unknown", "bare_word", "repeated_field", "repeated_clip",
        "more_tracks", "fewer_tracks"])
def test_bad_manifest_clip_record_reports_line(tmp_path, clip_lines, match):
    """A clip record with a missing, unknown or repeated field, a clip id
    seen before, or a tracks= count other than its track records is a
    ParseError naming its manifest line, not a clip that silently loads."""
    ds = tmp_path / "ds"
    write_fixture(ds, "track 0 5 2 fast\n")
    manifest = ds / "manifest.txt"
    manifest.write_text(manifest.read_text().replace(FIXTURE_CLIP, clip_lines))
    with pytest.raises(ParseError, match=match):
        sv.read_dataset(str(ds))


def test_round_trip_closes_every_file(tmp_path):
    """Writing and reading a dataset leaves no file object for the garbage
    collector to close: no ResourceWarning is recorded."""
    ds = str(tmp_path / "ds")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sv.write_dataset(sv.generate_dataset(small_cfg(t=2), 3, seed=0), ds)
        loaded = sv.read_dataset(ds)
        gc.collect()
    assert len(loaded) == 3
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_truncated_frames_reports_offset(tmp_path):
    ds = tmp_path / "ds"
    sv.write_dataset(sv.generate_dataset(small_cfg(t=2), 1, seed=0), str(ds))
    bin_path = ds / "clips" / "clip_000000.bin"
    bin_path.write_bytes(bin_path.read_bytes()[:-4])
    with pytest.raises(ParseError) as exc:
        sv.read_dataset(str(ds))
    assert "offset" in str(exc.value)


def test_missing_manifest(tmp_path):
    with pytest.raises(ParseError):
        sv.read_dataset(str(tmp_path / "nope"))


def test_frame_values_in_unit_range():
    clip = sv.generate_clip(small_cfg(), seed=3, clip_id=0)
    assert clip.frames.min() >= 0.0 and clip.frames.max() <= 1.0


def test_occlusion_produces_dropped_boxes():
    cfg = small_cfg(t=6, occluder_prob=1.0, min_objects=2, max_objects=4)
    dropped = 0
    for seed in range(30):
        clip = sv.generate_clip(cfg, seed=seed, clip_id=seed)
        dropped += int(np.isnan(clip.tracks.box[..., 0]).sum())
    assert dropped > 0
