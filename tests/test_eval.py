import numpy as np
import pytest

from clipvid import evaluate as ev
from clipvid import synthvid as sv
from clipvid.errors import InputError
from clipvid.geometry import Box
from clipvid.model import Detection
from oracles import average_precision, box_array, iou, loop_evaluate, tracks_of_rows
from oracles import box_from_corners as corners


def clip_with(tracks, t=2, clip_id=0, size=8):
    frames = np.zeros((t, size, size, 3), dtype=np.float32)
    return sv.ClipSample(clip_id, frames, tracks_of_rows(tracks, t))


def track(tid, cls, boxes, label="slow"):
    """One Tracks row: a NaN box and visibility 0 where boxes holds None."""
    box = [[np.nan] * 4 if b is None else box_array(b) for b in boxes]
    vis = [1.0 if b is not None else 0.0 for b in boxes]
    return tid, cls, label, box, vis


# ---------------------------------------------------------------------------
# average_precision on flat scored boxes


def test_ap_perfect_single_detection():
    gt = corners(0.2, 0.2, 0.6, 0.6)
    det_box = corners(0.205, 0.2, 0.6, 0.6)
    assert iou(det_box, gt) > 0.9
    assert average_precision([(0.9, det_box)], [gt]) == pytest.approx(1.0)


def test_ap_high_scored_miss_then_hit():
    gt = corners(0.2, 0.2, 0.6, 0.6)
    miss = corners(0.7, 0.7, 0.9, 0.9)
    assert average_precision([(0.9, miss), (0.5, gt)], [gt]) == pytest.approx(0.5)


def test_ap_zero_detections():
    assert average_precision([], [corners(0, 0, 1, 1)]) == 0.0


def test_ap_monotone_score_transform_invariance(rng):
    gts = [corners(0.1, 0.1, 0.3, 0.3), corners(0.5, 0.5, 0.8, 0.8)]
    dets = [(0.9, corners(0.1, 0.1, 0.31, 0.3)),
            (0.6, corners(0.55, 0.5, 0.8, 0.8)),
            (0.3, corners(0.0, 0.6, 0.2, 0.9))]
    base = average_precision(dets, gts)
    warped = [(2 * s ** 3 + 1, b) for s, b in dets]
    assert average_precision(warped, gts) == pytest.approx(base, abs=1e-12)


def test_ap_duplicate_detections_strictly_decrease():
    gts = [corners(0.1, 0.1, 0.4, 0.4), corners(0.5, 0.5, 0.8, 0.8)]
    dets = [(0.9, gts[0]), (0.7, gts[1])]
    base = average_precision(dets, gts)
    assert base == pytest.approx(1.0)
    # duplicates interleave as FPs and drag down later-recall precision
    doubled = dets + [(s, b) for s, b in dets]
    assert average_precision(doubled, gts) < base


# ---------------------------------------------------------------------------
# evaluate() with buckets


def perfect_detections(clips):
    return [[[Detection(c, 1.0, b) for c, b, _t in clip.frame_gts(i)]
             for i in range(clip.frames.shape[0])] for clip in clips]


def test_perfect_detector_full_marks():
    clips = [clip_with([
        track(0, 0, [corners(0.1, 0.1, 0.4, 0.4)] * 2, "slow"),
        track(1, 1, [corners(0.5, 0.5, 0.9, 0.9)] * 2, "fast"),
    ])]
    report = ev.evaluate(perfect_detections(clips), clips, num_classes=2)
    assert report.mean_ap == pytest.approx(1.0)
    assert report.bucket_ap["slow"] == pytest.approx(1.0)
    assert report.bucket_ap["fast"] == pytest.approx(1.0)
    assert report.bucket_gt_counts == {"slow": 2, "medium": 0, "fast": 2}


def test_missing_fast_tracks_isolated_to_bucket():
    clips = [clip_with([
        track(0, 0, [corners(0.1, 0.1, 0.4, 0.4)] * 2, "slow"),
        track(1, 0, [corners(0.5, 0.5, 0.9, 0.9)] * 2, "fast"),
    ])]
    dets = [[[Detection(0, 1.0, clips[0].frame_gts(i)[0][1])]
             for i in range(2)]]
    report = ev.evaluate(dets, clips, num_classes=1)
    assert report.bucket_ap["slow"] == pytest.approx(1.0)
    assert report.bucket_ap["fast"] == 0.0
    assert report.mean_ap == pytest.approx(0.5)


def test_duplicates_on_out_of_bucket_gt_ignored():
    """A duplicate hit on a slow object must not penalize the fast bucket."""
    slow_box = corners(0.1, 0.1, 0.4, 0.4)
    fast_box = corners(0.5, 0.5, 0.9, 0.9)
    clips = [clip_with([
        track(0, 0, [slow_box, slow_box], "slow"),
        track(1, 0, [fast_box, None], "fast"),
    ])]
    dets = [[[Detection(0, 0.9, slow_box), Detection(0, 0.8, slow_box),
              Detection(0, 0.7, fast_box)],
             [Detection(0, 0.75, slow_box)]]]
    report = ev.evaluate(dets, clips, num_classes=1)
    # fast bucket: the slow-claiming dets are ignored, the single hit is clean
    assert report.bucket_ap["fast"] == pytest.approx(1.0)
    # slow bucket: the duplicate interleaves as a false positive
    assert report.bucket_ap["slow"] < 1.0


def test_unknown_class_rejected():
    clips = [clip_with([track(0, 0, [corners(0.1, 0.1, 0.4, 0.4)] * 2)])]
    dets = [[[Detection(7, 1.0, corners(0.1, 0.1, 0.4, 0.4))], []]]
    with pytest.raises(InputError):
        ev.evaluate(dets, clips, num_classes=1)


@pytest.mark.parametrize("shape", ["missing_frame", "extra_frame", "missing_clip"])
def test_detections_not_one_list_per_frame_rejected(shape):
    clips = [clip_with([track(0, 0, [corners(0.1, 0.1, 0.4, 0.4)] * 2)], clip_id=c)
             for c in range(2)]
    dets = perfect_detections(clips)
    if shape == "missing_frame":
        dets[0] = dets[0][:1]
    elif shape == "extra_frame":
        dets[0] = dets[0] + [[]]
    else:
        dets = dets[:1]
    with pytest.raises(InputError, match="detections for"):
        ev.evaluate(dets, clips, num_classes=1)


def test_bucket_counts_reconcile_with_total():
    clips = [clip_with([
        track(0, 0, [corners(0.1, 0.1, 0.4, 0.4), None], "slow"),
        track(1, 1, [corners(0.5, 0.5, 0.9, 0.9)] * 2, "medium"),
        track(2, 1, [None, corners(0.3, 0.3, 0.6, 0.6)], "fast"),
    ])]
    report = ev.evaluate(perfect_detections(clips), clips, num_classes=2)
    assert sum(report.bucket_gt_counts.values()) == report.num_gts == 4


def test_iou_exactly_at_threshold_is_a_hit():
    gt = corners(0.25, 0.25, 0.75, 0.75)
    det = corners(0.25, 0.25, 0.75, 0.5)
    assert iou(det, gt) == ev.IOU_THRESH
    clips = [clip_with([track(0, 0, [gt, None])])]
    report = ev.evaluate([[[Detection(0, 0.9, det)], []]], clips, num_classes=1)
    assert report.mean_ap == 1.0


def test_equal_iou_goes_to_the_earlier_track():
    """A detection as close to two ground truths hits the one listed first:
    its TP counts in that track's bucket and is ignored by the other's."""
    det = corners(0.25, 0.25, 0.75, 0.75)
    a, b = corners(0.25, 0.25, 0.75, 1.0), corners(0.25, 0.0, 0.75, 0.75)
    assert iou(det, a) == iou(det, b) >= ev.IOU_THRESH
    clips = [clip_with([track(0, 0, [a, None], "slow"), track(1, 0, [b, None], "fast")])]
    report = ev.evaluate([[[Detection(0, 0.9, det)], []]], clips, num_classes=1)
    assert report.bucket_ap == {"slow": 1.0, "medium": 0.0, "fast": 0.0}


def test_ground_truth_class_out_of_range_rejected():
    clips = [clip_with([track(0, 3, [corners(0.1, 0.1, 0.4, 0.4)] * 2)])]
    with pytest.raises(InputError, match="class 3 out of range"):
        ev.evaluate(perfect_detections(clips), clips, num_classes=2)


def echo_detections(clips, rng, num_classes):
    """Per clip and frame: jittered echoes of each ground truth (some of
    another class, some duplicated) and a few stray boxes, with scores on a
    coarse grid so that ties are common, in shuffled order."""
    out = []
    for clip in clips:
        frames = []
        for f in range(clip.frames.shape[0]):
            dets = []
            for cls, b, _track in clip.frame_gts(f):
                for _ in range(int(rng.integers(0, 3))):
                    j = rng.normal(0.0, 0.05, size=4)
                    box = Box(b.cx + j[0], b.cy + j[1],
                              max(b.w + j[2], 0.01), max(b.h + j[3], 0.01))
                    c = cls if rng.random() < 0.8 else int(rng.integers(num_classes))
                    dets.append(Detection(c, float(np.round(rng.random(), 1)), box))
            for _ in range(int(rng.integers(0, 3))):
                cx, cy, w, h = rng.uniform(0.05, 0.6, size=4)
                dets.append(Detection(int(rng.integers(num_classes)),
                                      float(np.round(rng.random(), 1)), Box(cx, cy, w, h)))
            frames.append([dets[i] for i in rng.permutation(len(dets))])
        out.append(frames)
    return out


@pytest.mark.parametrize("seed", range(4))
def test_evaluate_matches_per_object_oracle(seed):
    """The array evaluation gives the very report of the per-object loop:
    every AP, bucket AP and count, compared through repr."""
    gen = sv.GenConfig(frame_size=16, t=4, max_objects=4, occluder_prob=0.5)
    clips = sv.generate_dataset(gen, 5, seed=seed)
    dets = echo_detections(clips, np.random.default_rng(seed), gen.num_classes)
    report = ev.evaluate(dets, clips, gen.num_classes)
    assert report.num_dets > 0 and report.num_gts > 0
    assert repr(report) == repr(loop_evaluate(dets, clips, gen.num_classes))


def test_report_serialization_lines():
    clips = [clip_with([track(0, 0, [corners(0.1, 0.1, 0.4, 0.4)] * 2)])]
    report = ev.evaluate(perfect_detections(clips), clips, num_classes=1)
    lines = report.lines()
    assert any(l.startswith("map=") for l in lines)
    assert any(l.startswith("map_fast=") for l in lines)
    table = report.table_lines()
    assert table[0] == "bucket,gt_count,map"
    assert len(table) == 5
    # The summary (what eval prints) leads the lines.
    summary = report.summary()
    assert list(summary) == ["map"] + [f"map_{label}" for label in sv.SPEED_LABELS]
    assert lines[:len(summary)] == [f"{k}={v:.6f}" for k, v in summary.items()]


# ---------------------------------------------------------------------------
# Independent flat-list oracle (also used by the acceptance suite)


def oracle_flat_ap(records, gts_by_frame, iou_thresh=0.5):
    """Brute-force AP: fresh greedy matching + per-prefix precision maxima.

    records: list of (score, order, frame_key, Box). Entirely separate code
    path from the evaluator: explicit loops, quadratic interpolation scan.
    """
    order = sorted(records, key=lambda r: (-r[0], r[1]))
    taken = {k: [False] * len(v) for k, v in gts_by_frame.items()}
    n_gt = sum(len(v) for v in gts_by_frame.values())
    flags = []
    for score, _, key, box in order:
        best_iou, best_j = 0.0, -1
        for j, g in enumerate(gts_by_frame.get(key, [])):
            v = iou(box, g)
            if v > best_iou:
                best_iou, best_j = v, j
        if best_iou >= iou_thresh and not taken[key][best_j]:
            taken[key][best_j] = True
            flags.append(True)
        else:
            flags.append(False)
    if n_gt == 0:
        return 0.0
    ap = 0.0
    prev_recall = 0.0
    tp = 0
    for k, flag in enumerate(flags, start=1):
        if flag:
            tp += 1
        recall = tp / n_gt
        if recall > prev_recall:
            best_prec = 0.0
            tp2 = 0
            for k2, f2 in enumerate(flags, start=1):       # max precision at >= recall
                if f2:
                    tp2 += 1
                if k2 >= k:
                    best_prec = max(best_prec, tp2 / k2)
        # recompute envelope precision the slow way
            ap += (recall - prev_recall) * best_prec
            prev_recall = recall
    return ap


def three_clip_fixture():
    rng = np.random.default_rng(42)
    clips = []
    for cid in range(3):
        tracks = []
        for tid in range(1 + cid % 2):
            x = 0.1 + 0.2 * tid + 0.05 * cid
            boxes = [corners(x, x, x + 0.3, x + 0.25) for _ in range(2)]
            tracks.append(track(tid, tid % 2, boxes,
                                sv.SPEED_LABELS[(cid + tid) % 3]))
        clips.append(clip_with(tracks, clip_id=cid))
    dets = []
    for clip in clips:
        frame_dets = []
        for i in range(2):
            lst = []
            for c, b, _t in clip.frame_gts(i):
                jx = float(rng.normal() * 0.02)
                shifted = Box(b.cx + jx, b.cy, b.w, b.h)
                lst.append(Detection(c, float(rng.random()), shifted))
            if rng.random() < 0.8:
                lst.append(Detection(0, float(rng.random()),
                                     corners(0.7, 0.7, 0.95, 0.95)))
            frame_dets.append(lst)
        dets.append(frame_dets)
    return clips, dets


def test_evaluator_matches_flat_list_oracle_exactly():
    clips, dets = three_clip_fixture()
    report = ev.evaluate(dets, clips, num_classes=2)

    for cls in report.per_class_ap:
        records = []
        order = 0
        for clip, clip_dets in zip(clips, dets):
            for fi, frame in enumerate(clip_dets):
                for d in frame:
                    if d.class_id == cls:
                        records.append((d.score, order, (clip.clip_id, fi), d.box))
                    order += 1
        gts_by_frame = {}
        for clip in clips:
            for fi in range(2):
                key = (clip.clip_id, fi)
                boxes = [b for c, b, _t in clip.frame_gts(fi) if c == cls]
                if boxes:
                    gts_by_frame[key] = boxes
        want = oracle_flat_ap(records, gts_by_frame)
        assert abs(report.per_class_ap[cls] - want) < 1e-9
