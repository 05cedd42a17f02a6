import gc
import hashlib
import re
import warnings

import numpy as np
import pytest

from clipvid import synthvid as sv
from clipvid.errors import ParseError
from clipvid.geometry import Box
from oracles import box_array, iou, loop_targets, tracks_of_rows


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
        rows = [(pos, c, box_array(b).tolist(), tid)
                for pos, i in enumerate(idx) for c, b, tid in clip.frame_gts(i)]
        assert list(zip(table.frame.tolist(), table.cls.tolist(), table.box.tolist(),
                        table.track.tolist())) == rows
        assert table.box.dtype == np.float64 and len(table) == len(rows)
    clip.tracks = tracks_of_rows([], len(clip.frames))
    assert clip.targets([0, 1]).box.shape == (0, 4)


def test_targets_matches_loop_reference():
    """targets, one nonzero over the clip's presence mask, equals the
    per-track, per-frame loop for sorted, unsorted and one-frame requests,
    with a box hidden in a requested frame and on a clip with no tracks."""
    clip = sv.generate_clip(small_cfg(min_objects=3, max_objects=4), seed=5, clip_id=1)
    clip.tracks.box[1, 4] = np.nan
    empty = sv.ClipSample(2, clip.frames, tracks_of_rows([], len(clip.frames)))
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


FIELDS = ("id", "cls", "speed", "box", "visibility")


def assert_same_dataset(a, b):
    """a and b hold the same clips in the same order: ids, frame bytes, and
    every Tracks array exactly, NaN in the same places."""
    assert [c.clip_id for c in a] == [c.clip_id for c in b]
    for x, y in zip(a, b):
        pairs = [(x.frames, y.frames)] + [(getattr(x.tracks, n), getattr(y.tracks, n))
                                          for n in FIELDS]
        for u, v in pairs:
            if u.dtype.kind == "U":
                assert np.array_equal(u, v)
            else:
                assert (u.dtype, u.shape) == (v.dtype, v.shape) and u.tobytes() == v.tobytes()


def dir_bytes(path):
    """Each file under path, by relative path, with its bytes."""
    return {str(p.relative_to(path)): p.read_bytes() for p in sorted(path.rglob("*"))
            if p.is_file()}


def test_write_read_round_trip(tmp_path):
    """A dataset reads back exactly as written, in the order written."""
    samples = sv.generate_dataset(small_cfg(t=4), 3, seed=7)[::-1]
    sv.write_dataset(samples, str(tmp_path / "ds"))
    loaded = sv.read_dataset(str(tmp_path / "ds"))
    assert [c.clip_id for c in loaded] == [2, 1, 0]
    assert_same_dataset(samples, loaded)


@pytest.mark.parametrize("kw, clips", [
    ({"t": 1, "frame_size": 8}, 3),
    ({"t": 5, "frame_size": 16, "min_objects": 4, "max_objects": 6}, 2),
    ({"t": 3, "frame_size": 8, "occluder_prob": 1.0, "blur_scale": 0.0}, 3),
    ({"t": 2, "frame_size": 24, "occluder_prob": 0.0, "blur_scale": 2.0, "num_classes": 1}, 2),
    ({"t": 12, "frame_size": 16, "min_objects": 1, "max_objects": 1}, 2),
    ({}, 0),
], ids=["t_1", "crowded", "occluded_unblurred", "clear_blurred", "t_12_one_object", "empty"])
def test_round_trip_is_exact_over_gen_configs(tmp_path, kw, clips):
    """read_dataset(write_dataset(d)) equals d exactly, and writing what was
    read reproduces every file of d byte for byte."""
    generated = sv.generate_dataset(sv.GenConfig(**kw), clips, seed=3)
    sv.write_dataset(generated, str(tmp_path / "a"))
    loaded = sv.read_dataset(str(tmp_path / "a"))
    assert_same_dataset(generated, loaded)
    sv.write_dataset(loaded, str(tmp_path / "b"))
    assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")


@pytest.mark.parametrize("kw,digest", [
    ({}, "fa7ebb5263e4865eb5a1fbafddbc000c3a89a5b424588bcb6e72de5f9b61feb9"),
    ({"occluder_prob": 1.0}, "1de40a5b486b2c540480c14ce76df66fdb5820b2a2a7c889f414b676efebf362"),
    ({"t": 1}, "b4e057a192abf5ac2eec0e3ce16bdd2e7d4c7398ba2666c5692c4e9fedae0579"),
    ({"t": 32, "blur_scale": 0.9, "occluder_prob": 1.0}, "4ed86ec76a3e408f19ba2ce19dbeab2d9442b08fff5b754fb2eff18f2b35c8b2"),
    ({"frame_size": 16, "t": 3}, "5ff652935494473b44f6ee143d8168f3fd61b4198aafc6c53e1c09958b935892"),
    ({"max_objects": 6}, "9d1e0e355f25f9835466d8b87facaa928e3afb38fae583ba35cc19bb2e445f05"),
], ids=["default", "occluder_prob_1", "t_1", "t_32_blur_0.9_occluded", "frame_size_16",
        "max_objects_6"])
def test_generated_dataset_bytes_are_pinned(tmp_path, kw, digest):
    """A seeded dataset keeps the bytes of every file it writes; the
    digests hold 14 tracks, 1 (default) and 4 (occluder on every clip)
    boxes hidden below VISIBILITY_MIN, and partial visibilities. The later
    rows pin one frame per clip, 32 frames of heavier blur under an
    occluder, the smallest frame, and up to six objects."""
    sv.write_dataset(sv.generate_dataset(sv.GenConfig(**kw), 4, seed=0), str(tmp_path))
    h = hashlib.sha256()
    for rel, data in dir_bytes(tmp_path).items():
        h.update(rel.encode() + b"\0" + data)
    assert h.hexdigest() == digest


@pytest.mark.parametrize("kw,hidden", [({}, 1), ({"occluder_prob": 1.0}, 4), ({"t": 1}, 2)],
                         ids=["default", "occluder_prob_1", "t_1"])
def test_rewrite_reproduces_dataset_bytes(tmp_path, kw, hidden):
    """write_dataset(read_dataset(d)) writes every file of d byte for byte,
    hidden boxes included."""
    generated = sv.generate_dataset(sv.GenConfig(**kw), 4, seed=0)
    assert sum(int(np.isnan(c.tracks.box[..., 0]).sum()) for c in generated) == hidden
    sv.write_dataset(generated, str(tmp_path / "generated"))
    sv.write_dataset(sv.read_dataset(str(tmp_path / "generated")), str(tmp_path / "rewritten"))
    files = dir_bytes(tmp_path / "generated")
    assert len(files) == 9              # the manifest and two files per clip
    assert files == dir_bytes(tmp_path / "rewritten")


def test_empty_dataset_round_trip(tmp_path):
    sv.write_dataset([], str(tmp_path / "ds"))
    assert sv.read_dataset(str(tmp_path / "ds")) == []


FIXTURE_FRAMES = np.arange(2 * 4 * 4 * 3, dtype="<f4").reshape(2, 4, 4, 3) / 100.0
FRAMES_FILE = "clips/clip_000000.frames.npy"
TRACKS_FILE = "clips/clip_000000.tracks.npy"


def fixture_table(t=2):
    """The two tracks of the fixture clip: track 5, class 2, fast, with a
    box in frame 0 only, and track 6, class 0, slow, with a box in both."""
    table = np.zeros(2, dtype=sv.track_dtype(t))
    table["id"], table["cls"], table["speed"] = [5, 6], [2, 0], ["fast", "slow"]
    table["box"] = np.nan
    table["box"][0, 0] = [0.5, 0.5, 0.5, 0.5]
    table["box"][1, :2] = [[0.25, 0.3, 0.2, 0.1], [0.3, 0.3, 0.2, 0.1]]
    table["visibility"][:, :2] = [[1.0, 0.1], [0.9, 0.8]]
    return table


def write_fixture(ds, frames=FIXTURE_FRAMES, table=None, clip_lines="0"):
    """A one-clip, two-frame dataset written by hand, file by file."""
    (ds / "clips").mkdir(parents=True)
    np.save(ds / FRAMES_FILE, frames)
    np.save(ds / TRACKS_FILE, fixture_table() if table is None else table)
    (ds / "manifest.txt").write_text(f"clipvid-dataset v2\n{clip_lines}\n")


def test_hand_written_fixture_parses(tmp_path):
    ds = tmp_path / "ds"
    write_fixture(ds)
    (clip,) = sv.read_dataset(str(ds))
    assert clip.clip_id == 0 and np.array_equal(clip.frames, FIXTURE_FRAMES)
    tr = clip.tracks
    assert (tr.id.tolist(), tr.cls.tolist(), tr.speed.tolist()) == ([5, 6], [2, 0],
                                                                     ["fast", "slow"])
    assert tr.box[0, 0].tolist() == [0.5, 0.5, 0.5, 0.5] and np.isnan(tr.box[0, 1]).all()
    assert tr.visibility.tolist() == [[1.0, 0.1], [0.9, 0.8]]
    assert [(c, t) for c, _b, t in clip.frame_gts(1)] == [(0, 6)]


def test_malformed_annotation_reports_line(tmp_path):
    """A track table with an unknown speed label is a ParseError naming its
    clip's manifest line and table file."""
    ds = tmp_path / "ds"
    sv.write_dataset(sv.generate_dataset(small_cfg(t=2), 2, seed=0), str(ds))
    table = np.load(ds / "clips" / "clip_000001.tracks.npy")
    table["speed"][0] = "warp9"
    np.save(ds / "clips" / "clip_000001.tracks.npy", table)
    with pytest.raises(ParseError, match=r":3: .*clip_000001\.tracks\.npy: .*speed label"):
        sv.read_dataset(str(ds))


def set_field(name, index, value):
    def edit(table):
        table[name][index] = value
        return table
    return edit


@pytest.mark.parametrize("edit, fault", [
    (lambda table: fixture_table(t=3), "1-D"),
    (set_field("id", 0, -3), "negative id"),
    (set_field("id", 1, 5), "repeated id"),
    (set_field("cls", 1, -1), "negative class"),
    (set_field("speed", 0, "warp9"), "speed label"),
    (set_field("box", (0, 0, 0), np.nan), "partly NaN"),
    (set_field("box", (1, 0, 1), np.inf), "not finite"),
    (set_field("box", (1, 1, 2), -0.2), "w <= 0"),      # what swapped x corners give
    (set_field("box", (1, 1, 3), 0.0), "h <= 0"),
    (set_field("visibility", (0, 0), 1.5), r"visibility outside \[0, 1\]"),
    (set_field("visibility", (0, 0), np.nan), r"visibility outside \[0, 1\]"),
    (set_field("visibility", (0, 1), -0.1), r"visibility outside \[0, 1\]"),
    (set_field("visibility", (0, 1), np.inf), r"visibility outside \[0, 1\]"),
    (lambda table: table.astype(table.dtype.descr[:1] + [("cls", "<i4")]
                                + table.dtype.descr[2:]), "1-D"),
    (lambda table: table[None], "1-D"),
], ids=["box_frame_past_end", "track_id_negative", "track_repeated", "class_negative",
        "speed_label_unknown", "box_corner_nan", "box_not_finite", "box_x_corners_swapped",
        "box_zero_height", "box_visibility_above_one", "box_visibility_nan", "vis_negative",
        "vis_inf", "table_dtype", "table_2d"])
def test_invalid_annotation_reports_line(tmp_path, edit, fault):
    """A track table of the wrong shape or dtype, a track id or class that
    would wrap an index or break the one-query-per-track property, a speed
    label outside SPEED_LABELS, a box without a finite, positive extent or
    a visibility outside [0, 1] is a ParseError naming the manifest line
    and the file, not silently kept."""
    ds = tmp_path / "ds"
    write_fixture(ds, table=edit(fixture_table()))
    with pytest.raises(ParseError, match=rf":2: .*{re.escape(TRACKS_FILE)}: .*{fault}"):
        sv.read_dataset(str(ds))


@pytest.mark.parametrize("extent", ["frames", "height", "width"])
def test_zero_clip_extent_reports_line(tmp_path, extent):
    """A clip with no frames or no pixels is a ParseError naming its
    manifest line and frame file, not a dataset that loads and then fails
    in training."""
    shape = list(FIXTURE_FRAMES.shape)
    shape[["frames", "height", "width"].index(extent)] = 0
    ds = tmp_path / "ds"
    write_fixture(ds, frames=np.zeros(shape, dtype="<f4"))
    with pytest.raises(ParseError, match=rf":2: .*{re.escape(FRAMES_FILE)}: .*non-empty"):
        sv.read_dataset(str(ds))


@pytest.mark.parametrize("frames", [
    FIXTURE_FRAMES.astype("<f8"), FIXTURE_FRAMES.astype(">f4"), FIXTURE_FRAMES[..., :1],
    FIXTURE_FRAMES[0],
], ids=["float64", "big_endian", "one_channel", "three_dims"])
def test_frames_not_f4_rgb_report_line(tmp_path, frames):
    ds = tmp_path / "ds"
    write_fixture(ds, frames=frames)
    with pytest.raises(ParseError, match=rf":2: .*{re.escape(FRAMES_FILE)}: frames must be"):
        sv.read_dataset(str(ds))


@pytest.mark.parametrize("clip_lines, match", [
    ("0\n1", r":3: .*clip_000001\.frames\.npy"),
    ("0 depth=3", r":2: .*depth=3"),
    ("0 stray", r":2: .*stray"),
    ("0\n0", ":3: .*repeated"),
    ("-1", ":2: .*negative"),
    ("1.5", r":2: .*1\.5"),
], ids=["missing", "unknown", "bare_word", "repeated_clip", "negative", "non_integer"])
def test_bad_manifest_clip_record_reports_line(tmp_path, clip_lines, match):
    """A clip listed without its files, a clip line that is not one
    non-negative integer, or a clip id seen before is a ParseError naming
    its manifest line, not a clip that silently loads."""
    ds = tmp_path / "ds"
    write_fixture(ds, clip_lines=clip_lines)
    with pytest.raises(ParseError, match=match):
        sv.read_dataset(str(ds))


def pickled_table(path):
    np.save(path, np.array([{"id": 5}], dtype=object), allow_pickle=True)


@pytest.mark.parametrize("rel, damage", [
    (FRAMES_FILE, lambda p: p.write_bytes(p.read_bytes()[:-4])),
    (TRACKS_FILE, lambda p: p.write_bytes(p.read_bytes()[:-1])),
    (FRAMES_FILE, lambda p: p.write_bytes(p.read_bytes()[:20])),
    (FRAMES_FILE, lambda p: p.write_bytes(p.read_bytes() + b"\0")),
    (TRACKS_FILE, lambda p: p.write_bytes(p.read_bytes() + b"\n")),
    (TRACKS_FILE, pickled_table),
    (FRAMES_FILE, lambda p: p.write_text("not an array\n")),
    (TRACKS_FILE, lambda p: p.unlink()),
], ids=["truncated_frames", "truncated_tracks", "truncated_header", "trailing_frame_bytes",
        "trailing_track_bytes", "pickled_tracks", "not_npy", "missing_tracks"])
def test_malformed_clip_file_reports_line_and_file(tmp_path, rel, damage):
    ds = tmp_path / "ds"
    write_fixture(ds)
    damage(ds / rel)
    with pytest.raises(ParseError, match=rf":2: .*{re.escape(rel)}"):
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
