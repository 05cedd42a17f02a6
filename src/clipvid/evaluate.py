"""Detection evaluation: per-class average precision, mAP, and the
motion-speed breakdown, as array code over one ground-truth table.

The dataset's ground truth is one table of N rows, one per box of each
clip's Tracks, in ClipSample.targets order with frames offset past the
earlier clips', and a bucket column holding each row's track speed label.
Detections are arrays in input order. Each frame gets one IoU matrix of its
detections against its ground truths, zero across classes. A detection hits
the first ground truth of maximal IoU, claimed or not, if that IoU is at
least IOU_THRESH. In descending score order (input order on ties), the
first detection to hit a ground truth claims it and is a true positive;
every other detection is a false positive. A claim never crosses a (clip,
frame, class) group, so one stable sort of all detections orders every
group as a per-class sort would. AP is all-point interpolated.

A bucket is one per-row label array. A bucket's AP counts only its own
ground truths, and ignores detections that hit a ground truth of another
bucket (neither TP nor FP).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .errors import InputError
from .model import Detection
from .synthvid import SPEED_LABELS, ClipSample, check_classes

IOU_THRESH = 0.5


@dataclass
class EvalReport:
    per_class_ap: dict[int, float]
    mean_ap: float
    bucket_ap: dict[str, float]            # slow | medium | fast
    bucket_gt_counts: dict[str, int]
    num_gts: int = 0
    num_dets: int = 0

    def summary(self) -> dict[str, float]:
        """The headline numbers in report order: map, then map_<bucket> for
        each bucket."""
        return {"map": self.mean_ap,
                **{f"map_{label}": self.bucket_ap[label] for label in SPEED_LABELS}}

    def lines(self) -> list[str]:
        out = [f"{name}={value:.6f}" for name, value in self.summary().items()]
        for c in sorted(self.per_class_ap):
            out.append(f"ap_class{c}={self.per_class_ap[c]:.6f}")
        for label in SPEED_LABELS:
            out.append(f"gt_{label}={self.bucket_gt_counts[label]}")
        out.append(f"gt_total={self.num_gts}")
        out.append(f"det_total={self.num_dets}")
        return out

    def table_lines(self) -> list[str]:
        out = ["bucket,gt_count,map"]
        out.append(f"overall,{self.num_gts},{self.mean_ap:.6f}")
        for label in SPEED_LABELS:
            out.append(f"{label},{self.bucket_gt_counts[label]},{self.bucket_ap[label]:.6f}")
        return out


def interpolated_ap(tp_flags: np.ndarray | list[bool], num_gt: int) -> float:
    """All-point interpolated AP from score-ordered hit flags."""
    if num_gt == 0 or len(tp_flags) == 0:
        return 0.0
    tp = np.cumsum(np.asarray(tp_flags, dtype=np.float64))
    n = np.arange(1, len(tp_flags) + 1, dtype=np.float64)
    mrec = np.concatenate(([0.0], tp / num_gt))
    mpre = np.maximum.accumulate(np.concatenate(([0.0], tp / n))[::-1])[::-1]
    return float(np.sum((mrec[1:] - mrec[:-1]) * mpre[1:]))


def evaluate(detections: list[list[list[Detection]]], clips: list[ClipSample],
             num_classes: int) -> EvalReport:
    """Score per-clip, per-frame detections against clip annotations.

    detections[c][f] lists the frame-f detections of clip c: one list per
    frame of each clip, and clips must not be empty. Raises InputError for
    detections of another shape, or a ground-truth or detection class
    outside num_classes.
    """
    check_classes(clips, num_classes)
    if len(detections) != len(clips):
        raise InputError(f"detections for {len(detections)} clips, expected {len(clips)}")
    for clip, clip_dets in zip(clips, detections):
        if len(clip_dets) != len(clip.frames):
            raise InputError(f"clip {clip.clip_id}: detections for {len(clip_dets)} frames, "
                             f"expected {len(clip.frames)}")
    # Frame f of clip c is row offsets[c] + f of the dataset's frame axis.
    offsets = np.cumsum([0] + [len(clip.frames) for clip in clips])
    rows = [(clip.tracks, *np.nonzero(~np.isnan(clip.tracks.box[..., 0]).T)) for clip in clips]
    gt_frame = np.concatenate([f + off for (_tr, f, _k), off in zip(rows, offsets)])
    gt_cls = np.concatenate([tr.cls[k] for tr, _f, k in rows])
    gt_box = np.concatenate([tr.box[k, f] for tr, f, k in rows])
    bucket = np.concatenate([tr.speed[k] for tr, _f, k in rows])

    frames = [(off + f, frame) for off, clip_dets in zip(offsets.tolist(), detections)
              for f, frame in enumerate(clip_dets)]
    dets = [d for _f, frame in frames for d in frame]
    det_frame = np.repeat([f for f, _ in frames], [len(frame) for _, frame in frames])
    det_cls = np.array([d.class_id for d in dets], dtype=np.int64)
    score = np.array([d.score for d in dets], dtype=np.float64)
    det_box = np.array([(d.box.cx, d.box.cy, d.box.w, d.box.h) for d in dets]).reshape(-1, 4)
    bad = (det_cls < 0) | (det_cls >= num_classes)
    if bad.any():
        raise InputError(f"detection class {det_cls[bad][0]} out of range")

    # hit: the ground-truth row each detection hits, or -1.
    hit = np.full(len(dets), -1)
    det_bounds = np.searchsorted(det_frame, np.arange(offsets[-1] + 1))
    gt_bounds = np.searchsorted(gt_frame, np.arange(offsets[-1] + 1))
    for a, b, lo, hi in zip(det_bounds[:-1], det_bounds[1:], gt_bounds[:-1], gt_bounds[1:]):
        if a == b or lo == hi:
            continue
        inter, union, _ = geo.box_overlap(det_box[a:b, None], gt_box[None, lo:hi])
        same = det_cls[a:b, None] == gt_cls[None, lo:hi]
        iou = np.divide(inter, union, out=np.zeros_like(inter), where=same & (union > 0))
        best = iou.argmax(axis=1)
        hit[a:b] = np.where(iou[np.arange(b - a), best] >= IOU_THRESH, lo + best, -1)

    order = np.argsort(-score, kind="stable")
    hit, cls = hit[order], det_cls[order]
    tp = np.zeros(len(hit), dtype=bool)
    tp[np.unique(hit, return_index=True)[1]] = True       # the first claim of each row
    tp &= hit >= 0

    def class_aps(counted: np.ndarray, gt_rows: np.ndarray) -> dict[int, float]:
        """AP of each class with a ground truth among gt_rows, over the
        counted detections."""
        return {int(c): interpolated_ap(tp[counted & (cls == c)], int(np.sum(gt_cls[gt_rows] == c)))
                for c in np.unique(gt_cls[gt_rows])}

    per_class = class_aps(np.ones(len(tp), dtype=bool), np.ones(len(gt_cls), dtype=bool))
    hit_bucket = np.append(bucket, "")[hit]              # hit -1 reads the appended ""
    bucket_ap, bucket_counts = {}, {}
    for label in SPEED_LABELS:
        member = bucket == label
        aps = class_aps((hit < 0) | (hit_bucket == label), member)
        bucket_ap[label] = float(np.mean(list(aps.values()))) if aps else 0.0
        bucket_counts[label] = int(member.sum())
    mean_ap = float(np.mean(list(per_class.values()))) if per_class else 0.0
    return EvalReport(per_class, mean_ap, bucket_ap, bucket_counts,
                      num_gts=len(gt_cls), num_dets=len(dets))
