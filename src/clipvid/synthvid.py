"""Synthetic video clips with ground-truth tracks.

Textured shapes move over a textured background with seeded, smooth
trajectories. Motion blur (sub-frame position averaging) grows with speed
and occluder strips plus object overlap produce occlusion, so fast movers
are genuinely harder to recognize from a single frame. Annotations reflect
pre-blur geometric truth.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError, ParseError
from .geometry import Box

SHAPE_NAMES = ("disc", "square", "triangle", "cross", "ring")
SPEED_LABELS = ("slow", "medium", "fast")
VISIBILITY_MIN = 0.25


@dataclass
class GenConfig:
    num_classes: int = 5
    min_objects: int = 1
    max_objects: int = 4
    frame_size: int = 64
    t: int = 8
    slow_max: float = 0.02          # mean per-frame displacement thresholds
    fast_min: float = 0.06
    occluder_prob: float = 0.35
    blur_scale: float = 0.45        # sub-renders per pixel of displacement
    min_half: float = 0.10          # object half-extent range, frame fraction
    max_half: float = 0.20

    def validate(self) -> "GenConfig":
        if not (0 < self.slow_max < self.fast_min):
            raise ConfigError("speed bands must satisfy 0 < slow_max < fast_min")
        if self.num_classes < 1 or self.num_classes > len(SHAPE_NAMES):
            raise ConfigError(f"num_classes must be in [1, {len(SHAPE_NAMES)}]")
        if self.max_objects < self.min_objects or self.min_objects < 1:
            raise ConfigError("bad object count range")
        if self.frame_size < 8 or self.frame_size % 8:      # the 8x8 background grid
            raise ConfigError(
                f"frame_size must be a positive multiple of 8, got {self.frame_size}")
        if self.t < 1:
            raise ConfigError(f"t (frames per clip) must be at least 1, got {self.t}")
        if not 0.0 <= self.occluder_prob <= 1.0:
            raise ConfigError(f"occluder_prob must be in [0, 1], got {self.occluder_prob}")
        if not 0.0 <= self.blur_scale < math.inf:
            raise ConfigError(f"blur_scale must be finite and at least 0, got {self.blur_scale}")
        return self

    def speed_label(self, disp: float) -> str:
        if disp < self.slow_max:
            return "slow"
        if disp <= self.fast_min:
            return "medium"
        return "fast"


@dataclass
class Track:
    track_id: int
    class_id: int
    boxes: list[Box | None]
    visibility: list[float]
    speed_label: str


@dataclass(frozen=True)
class Targets:
    """The ground truth of a run of frames as one table of N rows, one per
    annotated box, frame-major and in track order within a frame."""

    frame: np.ndarray       # [N] int64 position of the row's frame in the run
    cls: np.ndarray         # [N] int64 class id
    box: np.ndarray         # [N, 4] float64 cx, cy, w, h
    track: np.ndarray       # [N] int64 track id

    def __len__(self) -> int:
        return len(self.frame)

    def tile(self, reps: int, frames: int) -> "Targets":
        """The table repeated reps times, copy r on frames r*frames onwards:
        the targets of a stack of reps runs of `frames` frames each."""
        return Targets(np.concatenate([self.frame + r * frames for r in range(reps)]),
                       np.tile(self.cls, reps), np.tile(self.box, (reps, 1)),
                       np.tile(self.track, reps))


@dataclass
class ClipSample:
    clip_id: int
    frames: np.ndarray              # [T, H, W, 3] float32 in [0, 1]
    tracks: list[Track]

    def frame_gts(self, i: int) -> list[tuple[int, Box, int]]:
        out = []
        for tr in self.tracks:
            if tr.boxes[i] is not None:
                out.append((tr.class_id, tr.boxes[i], tr.track_id))
        return out

    def targets(self, frame_idx) -> Targets:
        """The ground truth of the clip's frames frame_idx, in order, as one
        table whose frame column counts positions in frame_idx."""
        rows = [(pos, tr.class_id, tr.track_id, tr.boxes[i])
                for pos, i in enumerate(frame_idx) for tr in self.tracks
                if tr.boxes[i] is not None]
        frame, cls, track, boxes = zip(*rows) if rows else ((), (), (), ())
        return Targets(np.array(frame, dtype=np.int64), np.array(cls, dtype=np.int64),
                       np.array([b.as_array() for b in boxes]).reshape(-1, 4),
                       np.array(track, dtype=np.int64))


def check_classes(dataset: list[ClipSample], num_classes: int) -> None:
    """Raise InputError for a ground-truth class the model lacks."""
    for clip in dataset:
        for track in clip.tracks:
            if not 0 <= track.class_id < num_classes:
                raise InputError(f"clip {clip.clip_id} track {track.track_id}: class "
                                 f"{track.class_id} out of range for {num_classes} classes")


def _shape_mask(shape_id: int, cx: float, cy: float, rx: float, ry: float,
                centres: np.ndarray) -> np.ndarray:
    """The [size, size] pixels of a shape centred at (cx, cy); centres holds
    the frame's [size] pixel centres along either axis."""
    x = centres[None, :] - cx
    y = centres[:, None] - cy
    name = SHAPE_NAMES[shape_id]
    if name == "disc":
        return (x / rx) ** 2 + (y / ry) ** 2 <= 1.0
    if name == "square":
        return (np.abs(x) <= rx) & (np.abs(y) <= ry)
    if name == "triangle":
        t = (y + ry) / (2 * ry)
        return (np.abs(y) <= ry) & (np.abs(x) <= rx * np.clip(t, 0.0, 1.0))
    if name == "cross":
        return ((np.abs(x) <= rx / 3) & (np.abs(y) <= ry)) | \
               ((np.abs(y) <= ry / 3) & (np.abs(x) <= rx))
    r2 = (x / rx) ** 2 + (y / ry) ** 2
    return (r2 <= 1.0) & (r2 >= 0.45)       # ring


@dataclass
class _ObjectSpec:
    track_id: int
    class_id: int
    rx: float
    ry: float
    color_a: np.ndarray
    color_b: np.ndarray
    stripe_dir: tuple[float, float]
    stripe_freq: float
    stripe_phase: float
    centers: list[tuple[float, float]]      # per frame


def _paint(canvas: np.ndarray, mask: np.ndarray, obj: _ObjectSpec,
           cx: float, cy: float) -> None:
    size = canvas.shape[0]
    ys, xs = np.nonzero(mask)
    if ys.size == 0:
        return
    # Texture rides in object coordinates so it is a stable identity cue.
    u = (xs + 0.5) / size - cx
    v = (ys + 0.5) / size - cy
    phase = np.sin(2 * math.pi * obj.stripe_freq *
                   (u * obj.stripe_dir[0] + v * obj.stripe_dir[1]) + obj.stripe_phase)
    colors = np.where(phase[:, None] > 0, obj.color_a[None, :], obj.color_b[None, :])
    canvas[ys, xs] = colors


def _background(rng: np.random.Generator, size: int) -> np.ndarray:
    base = rng.uniform(0.25, 0.5, size=3)
    coarse = rng.uniform(-0.08, 0.08, size=(8, 8, 3))
    grid = np.repeat(np.repeat(coarse, size // 8, axis=0), size // 8, axis=1)
    return np.clip(base[None, None, :] + grid, 0.0, 1.0).astype(np.float64)


def generate_clip(cfg: GenConfig, seed: int, clip_id: int = 0) -> ClipSample:
    """Render one clip; fully determined by (cfg, seed, clip_id)."""
    cfg.validate()
    rng = np.random.default_rng(seed ^ clip_id)
    size = cfg.frame_size
    T = cfg.t

    n_obj = int(rng.integers(cfg.min_objects, cfg.max_objects + 1))
    objects: list[_ObjectSpec] = []
    for tid in range(n_obj):
        class_id = int(rng.integers(cfg.num_classes))
        rx = float(rng.uniform(cfg.min_half, cfg.max_half))
        ry = float(rng.uniform(cfg.min_half, cfg.max_half))
        if SHAPE_NAMES[class_id] in ("disc", "ring", "cross"):
            ry = rx
        band = SPEED_LABELS[int(rng.integers(3))]
        speed = {"slow": rng.uniform(0.004, 0.016),
                 "medium": rng.uniform(0.026, 0.054),
                 "fast": rng.uniform(0.072, 0.120)}[band]
        theta = float(rng.uniform(0, 2 * math.pi))
        margin_x, margin_y = rx + 0.01, ry + 0.01
        cx = float(rng.uniform(margin_x, 1 - margin_x))
        cy = float(rng.uniform(margin_y, 1 - margin_y))
        centers = []
        for _ in range(T):
            centers.append((cx, cy))
            theta += float(rng.uniform(-0.5, 0.5))
            dx, dy = speed * math.cos(theta), speed * math.sin(theta)
            nx, ny = cx + dx, cy + dy
            if nx < margin_x or nx > 1 - margin_x:
                theta = math.pi - theta
                nx = min(max(nx, margin_x), 1 - margin_x)
            if ny < margin_y or ny > 1 - margin_y:
                theta = -theta
                ny = min(max(ny, margin_y), 1 - margin_y)
            cx, cy = nx, ny
        hue = rng.uniform(0.55, 1.0, size=3)
        alt = np.clip(hue * rng.uniform(0.3, 0.7), 0.0, 1.0)
        objects.append(_ObjectSpec(
            tid, class_id, rx, ry, hue, alt,
            stripe_dir=(math.cos(a := rng.uniform(0, math.pi)), math.sin(a)),
            stripe_freq=float(rng.uniform(6.0, 14.0)),
            stripe_phase=float(rng.uniform(0, 2 * math.pi)),
            centers=centers))

    occluder = np.zeros((size, size), dtype=bool)     # the strip's pixels
    shade = None
    if rng.uniform() < cfg.occluder_prob:
        vertical = bool(rng.integers(2))
        width = float(rng.uniform(0.08, 0.16))
        pos = float(rng.uniform(0.2, 0.8))
        shade = rng.uniform(0.05, 0.2, size=3)
        lo = int((pos - width / 2) * size)
        hi = max(int((pos + width / 2) * size), lo + 1)
        if vertical:
            occluder[:, lo:hi] = True
        else:
            occluder[lo:hi, :] = True

    background = _background(rng, size)
    centres = (np.arange(size) + 0.5) / size

    def render(positions: list[tuple[float, float]]) -> np.ndarray:
        canvas = background.copy()
        for obj, (cx, cy) in zip(objects, positions):
            mask = _shape_mask(obj.class_id, cx, cy, obj.rx, obj.ry, centres)
            _paint(canvas, mask, obj, cx, cy)
        if shade is not None:
            canvas[occluder] = shade
        return canvas

    frames = np.zeros((T, size, size, 3), dtype=np.float32)
    for t in range(T):
        velocities = []
        for obj in objects:
            prev = obj.centers[t - 1] if t > 0 else obj.centers[t]
            nxt = obj.centers[t + 1] if t == 0 and T > 1 else obj.centers[t]
            vx, vy = (nxt[0] - prev[0], nxt[1] - prev[1])
            velocities.append((vx, vy))
        max_disp_px = max((math.hypot(*v) for v in velocities), default=0.0) * size
        n_sub = 1 + int(cfg.blur_scale * max_disp_px)
        acc = np.zeros((size, size, 3))
        taus = np.linspace(-0.5, 0.5, n_sub) if n_sub > 1 else [0.0]
        for tau in taus:
            positions = [(obj.centers[t][0] + tau * v[0], obj.centers[t][1] + tau * v[1])
                         for obj, v in zip(objects, velocities)]
            acc += render(positions)
        frames[t] = (acc / len(taus)).astype(np.float32)

    # Each object's mask at each frame; an object is covered by the occluder
    # strip and by every object painted after it.
    masks = np.array([[_shape_mask(obj.class_id, cx, cy, obj.rx, obj.ry, centres)
                       for cx, cy in obj.centers] for obj in objects])     # [n, T, size, size]
    covered = np.empty_like(masks)
    covered[-1] = occluder
    for oi in range(len(objects) - 1, 0, -1):
        covered[oi - 1] = covered[oi] | masks[oi]
    totals = masks.sum(axis=(2, 3)).tolist()
    visibles = (masks & ~covered).sum(axis=(2, 3)).tolist()

    tracks: list[Track] = []
    for obj, total, visible in zip(objects, totals, visibles):
        vis = [v / t if t else 0.0 for v, t in zip(visible, total)]
        boxes = [Box.from_corners(cx - obj.rx, cy - obj.ry, cx + obj.rx, cy + obj.ry)
                 if v >= VISIBILITY_MIN else None for (cx, cy), v in zip(obj.centers, vis)]
        disp = 0.0
        for (px, py), (cx, cy) in zip(obj.centers, obj.centers[1:]):
            disp += math.hypot(cx - px, cy - py)
        mean_disp = disp / (T - 1) if T > 1 else 0.0
        tracks.append(Track(obj.track_id, obj.class_id, boxes, vis,
                            cfg.speed_label(mean_disp)))
    return ClipSample(clip_id, frames, tracks)


def generate_dataset(cfg: GenConfig, num_clips: int, seed: int) -> list[ClipSample]:
    return [generate_clip(cfg, seed, clip_id=i) for i in range(num_clips)]


# ---------------------------------------------------------------------------
# On-disk format: manifest + raw little-endian float32 frames + text records


def write_dataset(samples: list[ClipSample], path: str) -> None:
    os.makedirs(os.path.join(path, "clips"), exist_ok=True)
    manifest = ["clipvid-dataset v1", f"clips={len(samples)}"]
    ann_lines = []
    for s in samples:
        t, h, w, _ = s.frames.shape
        rel = f"clips/clip_{s.clip_id:06d}.bin"
        manifest.append(f"clip {s.clip_id} frames={t} height={h} width={w} "
                        f"file={rel} tracks={len(s.tracks)}")
        with open(os.path.join(path, rel), "wb") as fh:
            fh.write(np.ascontiguousarray(s.frames, dtype="<f4").tobytes())
        for tr in s.tracks:
            ann_lines.append(f"track {s.clip_id} {tr.track_id} {tr.class_id} "
                             f"{tr.speed_label}")
            for fi, (box, v) in enumerate(zip(tr.boxes, tr.visibility)):
                if box is None:
                    ann_lines.append(f"vis {s.clip_id} {tr.track_id} {fi} {v:.17g}")
                else:
                    x1, y1, x2, y2 = box.corners()
                    ann_lines.append(
                        f"box {s.clip_id} {tr.track_id} {tr.class_id} {fi} "
                        f"{x1:.17g} {y1:.17g} {x2:.17g} {y2:.17g} {v:.17g} "
                        f"{tr.speed_label}")
    with open(os.path.join(path, "manifest.txt"), "w") as fh:
        fh.write("\n".join(manifest) + "\n")
    with open(os.path.join(path, "annotations.txt"), "w") as fh:
        fh.write("\n".join(ann_lines) + ("\n" if ann_lines else ""))


def read_dataset(path: str) -> list[ClipSample]:
    mani_path = os.path.join(path, "manifest.txt")
    try:
        with open(mani_path) as fh:
            lines = fh.read().splitlines()
    except OSError as e:
        raise ParseError(f"cannot read manifest: {e}") from e
    if not lines or not lines[0].startswith("clipvid-dataset"):
        raise ParseError(f"{mani_path}:1: not a dataset manifest")

    clips: dict[int, ClipSample] = {}
    declared_tracks: dict[int, tuple[int, int]] = {}    # clip id -> (manifest line, tracks=)
    declared = None
    keys = ("frames", "height", "width", "file", "tracks")      # read by key, in any order
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if not parts:
            continue
        try:
            if line.startswith("clips="):
                declared = int(line.split("=", 1)[1])
                continue
            if parts[0] != "clip" or len(parts) < 2:
                raise ValueError("malformed clip record")
            cid = int(parts[1])
            if cid in clips:
                raise ValueError(f"repeated clip {cid}")
            pairs = [item.partition("=") for item in parts[2:]]
            rec = {key: value for key, eq, value in pairs if eq}
            if len(rec) != len(pairs) or sorted(rec) != sorted(keys):
                raise ValueError(f"clip fields must be {' '.join(keys)}, each once "
                                 f"as key=value, got {' '.join(parts[2:])}")
            t, h, w, n_tracks = map(int, map(rec.get, ("frames", "height", "width", "tracks")))
            rel = rec["file"]
            if min(t, h, w) < 1:
                raise ValueError(f"clip extents frames={t} height={h} width={w} must be >= 1")
        except ValueError as e:
            raise ParseError(f"{mani_path}:{ln}: {e}") from e
        bin_path = os.path.join(path, rel)
        expect = t * h * w * 3 * 4
        try:
            raw = open(bin_path, "rb").read()
        except OSError as e:
            raise ParseError(f"{mani_path}:{ln}: cannot read {rel}: {e}") from e
        if len(raw) != expect:
            raise ParseError(f"{bin_path}: offset {min(len(raw), expect)}: "
                             f"expected {expect} bytes, found {len(raw)}")
        frames = np.frombuffer(raw, dtype="<f4").reshape(t, h, w, 3).copy()
        clips[cid] = ClipSample(cid, frames, [])
        declared_tracks[cid] = (ln, n_tracks)
    if declared is not None and declared != len(clips):
        raise ParseError(f"{mani_path}: declared {declared} clips, found {len(clips)}")

    ann_path = os.path.join(path, "annotations.txt")
    tracks: dict[tuple[int, int], Track] = {}

    def frame_index(tr: Track, text: str) -> int:
        fi = int(text)
        if not 0 <= fi < len(tr.boxes):
            raise ValueError(f"frame index {fi} outside the clip's {len(tr.boxes)} frames")
        return fi

    def visibility(text: str) -> float:
        v = float(text)
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"visibility {text} must be in [0, 1]")
        return v

    if os.path.exists(ann_path):
        with open(ann_path) as fh:
            for ln, line in enumerate(fh, start=1):
                parts = line.split()
                if not parts:
                    continue
                try:
                    if parts[0] == "track":
                        cid, tid, cls = int(parts[1]), int(parts[2]), int(parts[3])
                        label = parts[4]
                        if label not in SPEED_LABELS:
                            raise ValueError(f"bad speed label {label!r}")
                        if cid not in clips:
                            raise ValueError(f"unknown clip {cid}")
                        if tid < 0 or cls < 0:
                            raise ValueError(f"negative track id {tid} or class {cls}")
                        if (cid, tid) in tracks:
                            raise ValueError(f"repeated track {tid} of clip {cid}")
                        t = len(clips[cid].frames)
                        tr = Track(tid, cls, [None] * t, [0.0] * t, label)
                        tracks[(cid, tid)] = tr
                        clips[cid].tracks.append(tr)
                    elif parts[0] == "vis":
                        tr = tracks[(int(parts[1]), int(parts[2]))]
                        tr.visibility[frame_index(tr, parts[3])] = visibility(parts[4])
                    elif parts[0] == "box":
                        tr = tracks[(int(parts[1]), int(parts[2]))]
                        if int(parts[3]) != tr.class_id:
                            raise ValueError(f"box class {parts[3]} differs from track "
                                             f"{tr.track_id}'s class {tr.class_id}")
                        if parts[10] != tr.speed_label:
                            raise ValueError(f"box speed label {parts[10]!r} differs from "
                                             f"track {tr.track_id}'s {tr.speed_label!r}")
                        fi = frame_index(tr, parts[4])
                        x1, y1, x2, y2 = (float(x) for x in parts[5:9])
                        if not (all(map(math.isfinite, (x1, y1, x2, y2)))
                                and x1 < x2 and y1 < y2):
                            raise ValueError(f"box corners ({x1}, {y1}, {x2}, {y2}) must be "
                                             f"finite with x1 < x2 and y1 < y2")
                        tr.boxes[fi] = Box.from_corners(x1, y1, x2, y2)
                        tr.visibility[fi] = visibility(parts[9])
                    else:
                        raise ValueError(f"unknown record {parts[0]!r}")
                except (KeyError, ValueError, IndexError) as e:
                    raise ParseError(f"{ann_path}:{ln}: {e}") from e
    for cid, (ln, n_tracks) in declared_tracks.items():
        if n_tracks != len(clips[cid].tracks):
            raise ParseError(f"{mani_path}:{ln}: clip {cid} declares tracks={n_tracks}, "
                             f"the annotations hold {len(clips[cid].tracks)}")
    return [clips[cid] for cid in sorted(clips)]
