"""Detection evaluation: per-class average precision, mAP, and the
motion-speed breakdown.

Greedy matching in descending score order (input order on ties), each
ground truth claimed once, IoU threshold 0.5, all-point interpolated AP.
Speed buckets restrict the ground truths; detections matched to an
out-of-bucket ground truth are ignored for that bucket (neither TP nor FP).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .geometry import Box, iou
from .model import Detection
from .synthvid import SPEED_LABELS, ClipSample

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


def interpolated_ap(tp_flags: list[bool], num_gt: int) -> float:
    """All-point interpolated AP from score-ordered hit flags."""
    if num_gt == 0:
        return 0.0
    if not tp_flags:
        return 0.0
    tp = np.cumsum(np.asarray(tp_flags, dtype=np.float64))
    n = np.arange(1, len(tp_flags) + 1, dtype=np.float64)
    rec = tp / num_gt
    prec = tp / n
    mrec = np.concatenate(([0.0], rec))
    mpre = np.concatenate(([0.0], prec))
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    return float(np.sum((mrec[1:] - mrec[:-1]) * mpre[1:]))


@dataclass
class _GtEntry:
    box: Box
    speed: str
    matched: bool = False


def evaluate(detections: list[list[list[Detection]]], clips: list[ClipSample],
             num_classes: int) -> EvalReport:
    """Score per-clip, per-frame detections against clip annotations.

    detections[c][f] lists the frame-f detections of clip c, aligned with
    clips[c]. Buckets come from the generator speed labels.
    """
    gts: dict[tuple[int, int, int], list[_GtEntry]] = {}
    gt_class_counts: dict[int, int] = {}
    bucket_class_counts: dict[str, dict[int, int]] = {lb: {} for lb in SPEED_LABELS}
    total_gts = 0
    for clip in clips:
        for tr in clip.tracks:
            if tr.class_id < 0 or tr.class_id >= num_classes:
                raise InputError(f"ground-truth class {tr.class_id} out of range")
            for fi, box in enumerate(tr.boxes):
                if box is None:
                    continue
                key = (clip.clip_id, fi, tr.class_id)
                gts.setdefault(key, []).append(_GtEntry(box, tr.speed_label))
                gt_class_counts[tr.class_id] = gt_class_counts.get(tr.class_id, 0) + 1
                bc = bucket_class_counts[tr.speed_label]
                bc[tr.class_id] = bc.get(tr.class_id, 0) + 1
                total_gts += 1

    # class -> list of (score, order, (clip_id, frame, box))
    records: dict[int, list[tuple[float, int, tuple[int, int, Box]]]] = {}
    order = 0
    total_dets = 0
    for clip, clip_dets in zip(clips, detections):
        for fi, frame_dets in enumerate(clip_dets):
            for det in frame_dets:
                if det.class_id < 0 or det.class_id >= num_classes:
                    raise InputError(f"detection class {det.class_id} out of range")
                records.setdefault(det.class_id, []).append(
                    (det.score, order, (clip.clip_id, fi, det.box)))
                order += 1
                total_dets += 1

    matched_per_class: dict[int, list[tuple[bool, _GtEntry | None]]] = {}
    for cls, recs in records.items():
        recs.sort(key=lambda r: (-r[0], r[1]))
        out = []
        for score, _, (cid, fi, box) in recs:
            cands = gts.get((cid, fi, cls), [])
            best, best_e = 0.0, None
            for e in cands:
                v = iou(box, e.box)
                if v > best:
                    best, best_e = v, e
            if best >= IOU_THRESH and best_e is not None and not best_e.matched:
                best_e.matched = True
                out.append((True, best_e))
            else:
                out.append((False, best_e if best >= IOU_THRESH else None))
        matched_per_class[cls] = out

    def class_ap(cls: int, bucket: str | None) -> float | None:
        if bucket is None:
            n_gt = gt_class_counts.get(cls, 0)
        else:
            n_gt = bucket_class_counts[bucket].get(cls, 0)
        if n_gt == 0:
            return None
        flags = []
        for is_tp, entry in matched_per_class.get(cls, []):
            if bucket is not None and entry is not None and entry.speed != bucket:
                continue          # claimed by an out-of-bucket gt: ignored
            flags.append(is_tp)
        return interpolated_ap(flags, n_gt)

    per_class: dict[int, float] = {}
    for cls in sorted(gt_class_counts):
        per_class[cls] = class_ap(cls, None)
    mean_ap = float(np.mean(list(per_class.values()))) if per_class else 0.0

    bucket_ap: dict[str, float] = {}
    bucket_counts: dict[str, int] = {}
    for label in SPEED_LABELS:
        counts = bucket_class_counts[label]
        bucket_counts[label] = sum(counts.values())
        aps = [class_ap(cls, label) for cls in sorted(counts)]
        aps = [a for a in aps if a is not None]
        bucket_ap[label] = float(np.mean(aps)) if aps else 0.0

    return EvalReport(per_class, mean_ap, bucket_ap, bucket_counts,
                      num_gts=total_gts, num_dets=total_dets)
