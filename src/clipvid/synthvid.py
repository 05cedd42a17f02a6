"""Synthetic video clips with ground-truth tracks.

Textured shapes move over a textured background with seeded, smooth
trajectories. Motion blur (sub-frame position averaging) grows with speed
and occluder strips plus object overlap produce occlusion, so fast movers
are harder to recognize from a single frame. A clip's Tracks table holds
the pre-blur geometric truth as [tracks, frames] boxes and visibilities.

On-disk format: np.save files of the in-memory arrays, read back exactly.
  manifest.txt                    "clipvid-dataset v2", then one clip id a line
  clips/clip_<id:06d>.frames.npy  the clip's frames, <f4 [T, H, W, 3]
  clips/clip_<id:06d>.tracks.npy  its Tracks table: one track_dtype(T) record
                                  (id, cls, speed, box, visibility) a track
read_dataset refuses any other file, or values no generated clip holds, as
a ParseError naming the manifest line and the file.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .checkpoint import read_array
from .errors import CapacityError, ConfigError, InputError, ParseError
from .geometry import Box

SHAPE_NAMES = ("disc", "square", "triangle", "cross", "ring")
SPEED_LABELS = ("slow", "medium", "fast")
VISIBILITY_MIN = 0.25
# Mean per-frame displacement thresholds of the speed bands, and the range of
# an object's half-extent, as frame fractions.
SLOW_MAX = 0.02
FAST_MIN = 0.06
MIN_HALF = 0.10
MAX_HALF = 0.20


@dataclass
class GenConfig:
    num_classes: int = 5
    min_objects: int = 1
    max_objects: int = 4
    frame_size: int = 64
    t: int = 8
    occluder_prob: float = 0.35
    blur_scale: float = 0.45        # sub-renders per pixel of displacement

    def validate(self) -> "GenConfig":
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


def speed_label(disp: float) -> str:
    """The speed band of a track's mean per-frame displacement."""
    if disp < SLOW_MAX:
        return "slow"
    if disp <= FAST_MIN:
        return "medium"
    return "fast"


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

    @staticmethod
    def stack(tables: list["Targets"], frames: int) -> "Targets":
        """The tables of a stack of runs of `frames` frames each, table r on
        frames r*frames onwards, as one table."""
        return Targets(np.concatenate([t.frame + r * frames for r, t in enumerate(tables)]),
                       *(np.concatenate([getattr(t, k) for t in tables])
                         for k in ("cls", "box", "track")))


@dataclass(frozen=True)
class Tracks:
    """The ground truth of a clip as one table of K tracks over its T frames."""

    id: np.ndarray          # [K] int64 track id
    cls: np.ndarray         # [K] int64 class id
    speed: np.ndarray       # [K] str speed label
    box: np.ndarray         # [K, T, 4] float64 cx, cy, w, h; NaN where the track has no box
    visibility: np.ndarray  # [K, T] float64

    def __len__(self) -> int:
        return len(self.id)


@dataclass
class ClipSample:
    clip_id: int
    frames: np.ndarray              # [T, H, W, 3] float32 in [0, 1]
    tracks: Tracks

    def frame_gts(self, i: int) -> list[tuple[int, Box, int]]:
        """Frame i's (class, box, track id) of each track with a box there."""
        tr = self.tracks
        return [(c, Box(*b), k) for c, b, k in zip(tr.cls.tolist(), tr.box[:, i].tolist(),
                                                   tr.id.tolist()) if not math.isnan(b[0])]

    def targets(self, frame_idx) -> Targets:
        """The ground truth of the clip's frames frame_idx, in order, as one
        table whose frame column counts positions in frame_idx."""
        box = self.tracks.box[:, frame_idx]         # [K, len(frame_idx), 4]
        pos, k = np.nonzero(~np.isnan(box[..., 0]).T)
        return Targets(pos, self.tracks.cls[k], box[k, pos], self.tracks.id[k])


def check_classes(dataset: list[ClipSample], num_classes: int) -> None:
    """Raise InputError for a ground-truth class the model lacks."""
    for clip in dataset:
        bad = np.flatnonzero((clip.tracks.cls < 0) | (clip.tracks.cls >= num_classes))
        if len(bad):
            raise InputError(f"clip {clip.clip_id} track {clip.tracks.id[bad[0]]}: class "
                             f"{clip.tracks.cls[bad[0]]} out of range for {num_classes} classes")


def check_capacity(dataset: list[ClipSample], num_queries: int) -> None:
    """Raise CapacityError for a frame with more ground truths than queries."""
    for clip in dataset:
        counts = (~np.isnan(clip.tracks.box[..., 0])).sum(0)       # [T] boxes a frame
        if (counts > num_queries).any():
            f = int(np.argmax(counts > num_queries))
            raise CapacityError(f"clip {clip.clip_id} frame {f}: {counts[f]} ground truths "
                                f"exceed {num_queries} prediction slots")


def _shape_mask(shape_id: int, cx: np.ndarray, cy: np.ndarray, rx: float, ry: float,
                centres: np.ndarray) -> np.ndarray:
    """The [..., size, size] pixels of a shape centred at each of the [...]
    points (cx, cy); centres holds the frame's [size] pixel centres along
    either axis."""
    x = centres - cx[..., None, None]
    y = centres[:, None] - cy[..., None, None]
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
    class_id: int
    rx: float
    ry: float
    color_a: np.ndarray
    color_b: np.ndarray
    stripe_dir: tuple[float, float]
    stripe_freq: float
    stripe_phase: float
    centers: list[tuple[float, float]]      # per frame


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
    for _ in range(n_obj):
        class_id = int(rng.integers(cfg.num_classes))
        rx = float(rng.uniform(MIN_HALF, MAX_HALF))
        ry = float(rng.uniform(MIN_HALF, MAX_HALF))
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
            class_id, rx, ry, hue, alt,
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

    path = np.array([obj.centers for obj in objects])          # [n, T, 2]
    # An object blurs along its step into the frame; the first frame uses
    # the step out of it.
    vel = np.diff(path, axis=1, prepend=path[:, :1])
    if T > 1:
        vel[:, 0] = vel[:, 1]
    frames = np.empty((T, size, size, 3), dtype=np.float32)
    for t in range(T):
        # math.hypot on Python floats: np.hypot can differ in the last ulp
        # and so change n_sub.
        max_disp_px = max(math.hypot(vx, vy) for vx, vy in vel[:, t].tolist()) * size
        n_sub = 1 + int(cfg.blur_scale * max_disp_px)
        taus = np.linspace(-0.5, 0.5, n_sub) if n_sub > 1 else np.zeros(1)
        sub = path[:, t, None] + taus[:, None] * vel[:, t, None]       # [n, n_sub, 2]
        # One canvas per sub-position, painted object by object in order.
        canvas = np.repeat(background[None], n_sub, axis=0)         # [n_sub, size, size, 3]
        for obj, (cx, cy) in zip(objects, sub.transpose(0, 2, 1)):
            ks, ys, xs = np.nonzero(_shape_mask(obj.class_id, cx, cy, obj.rx, obj.ry, centres))
            # Texture rides in object coordinates so it is a stable identity cue.
            u = (xs + 0.5) / size - cx[ks]
            v = (ys + 0.5) / size - cy[ks]
            phase = np.sin(2 * math.pi * obj.stripe_freq *
                           (u * obj.stripe_dir[0] + v * obj.stripe_dir[1]) + obj.stripe_phase)
            canvas[ks, ys, xs] = np.where(phase[:, None] > 0, obj.color_a, obj.color_b)
        if shade is not None:
            canvas[:, occluder] = shade
        # The bytes depend on the summation order: an axis-0 sum adds the
        # sub-renders one after another, in tau order.
        frames[t] = canvas.sum(axis=0) / n_sub

    # Each object's mask at each frame; an object is covered by the occluder
    # strip and by every object painted after it.
    masks = np.array([_shape_mask(obj.class_id, xy[:, 0], xy[:, 1], obj.rx, obj.ry, centres)
                      for obj, xy in zip(objects, path)])      # [n, T, size, size]
    covered = np.empty_like(masks)
    covered[-1] = occluder
    for oi in range(len(objects) - 1, 0, -1):
        covered[oi - 1] = covered[oi] | masks[oi]
    totals = masks.sum(axis=(2, 3))
    visibles = (masks & ~covered).sum(axis=(2, 3))
    vis = np.divide(visibles, totals, out=np.zeros(totals.shape), where=totals > 0)
    # Each object's center-size box from its corners in float64: (lo + hi) / 2, hi - lo.
    half = np.array([(obj.rx, obj.ry) for obj in objects])[:, None]
    lo, hi = path - half, path + half
    box = np.concatenate([(lo + hi) / 2.0, hi - lo], axis=-1)
    box[vis < VISIBILITY_MIN] = np.nan
    # Mean step lengths, as math.hypot of each step summed in frame order.
    disp = [reduce(lambda total, step: total + math.hypot(*step), steps, 0.0) / max(T - 1, 1)
            for steps in np.diff(path, axis=1).tolist()]
    return ClipSample(clip_id, frames, Tracks(
        np.arange(len(objects)), np.array([obj.class_id for obj in objects]),
        np.array([speed_label(d) for d in disp]), box, vis))


def generate_dataset(cfg: GenConfig, num_clips: int, seed: int) -> list[ClipSample]:
    return [generate_clip(cfg, seed, clip_id=i) for i in range(num_clips)]


MANIFEST_HEADER = "clipvid-dataset v2"


def track_dtype(t: int) -> np.dtype:
    """The record of one track of a t-frame clip in its track table file."""
    return np.dtype([("id", "<i8"), ("cls", "<i8"), ("speed", "<U6"),
                     ("box", "<f8", (t, 4)), ("visibility", "<f8", (t,))])


def _clip_files(path: str, clip_id: int) -> tuple[str, str]:
    stem = os.path.join(path, "clips", f"clip_{clip_id:06d}")
    return stem + ".frames.npy", stem + ".tracks.npy"


def write_dataset(samples: list[ClipSample], path: str) -> None:
    os.makedirs(os.path.join(path, "clips"), exist_ok=True)
    for s in samples:
        table = np.empty(len(s.tracks), dtype=track_dtype(len(s.frames)))
        for name in table.dtype.names:
            table[name] = getattr(s.tracks, name)
        frames_file, tracks_file = _clip_files(path, s.clip_id)
        np.save(frames_file, np.ascontiguousarray(s.frames, dtype="<f4"))
        np.save(tracks_file, table)
    with open(os.path.join(path, "manifest.txt"), "w") as fh:
        fh.writelines(f"{line}\n" for line in [MANIFEST_HEADER, *(s.clip_id for s in samples)])


def _check_tracks(tr: Tracks) -> None:
    """Raise ValueError for the first track that no generated clip holds."""
    hidden = np.isnan(tr.box).all(-1, keepdims=True)
    box = np.where(hidden, 1.0, tr.box)         # a hidden box checks as a valid one
    faults = {"negative id": tr.id < 0,
              "repeated id": (tr.id[:, None] == tr.id).sum(-1) > 1,
              "negative class": tr.cls < 0,
              f"speed label outside {SPEED_LABELS}": ~np.isin(tr.speed, SPEED_LABELS),
              "visibility outside [0, 1]": ~((tr.visibility >= 0) & (tr.visibility <= 1)).all(-1),
              "box that is partly NaN, not finite, or has w <= 0 or h <= 0":
                  ~(np.isfinite(box).all(-1) & (box[..., 2:] > 0).all(-1)).all(-1)}
    for fault, bad in faults.items():
        if bad.any():
            k = int(np.flatnonzero(bad)[0])
            raise ValueError(f"track {k} (id {tr.id[k]}): {fault}")


def read_dataset(path: str) -> list[ClipSample]:
    mani_path = os.path.join(path, "manifest.txt")
    try:
        with open(mani_path) as fh:
            lines = fh.read().splitlines()
    except OSError as e:
        raise ParseError(f"cannot read manifest: {e}") from e
    if lines[:1] != [MANIFEST_HEADER]:
        raise ParseError(f"{mani_path}:1: not a {MANIFEST_HEADER} manifest; "
                         f"regenerate the dataset with `clipvid gen`")
    samples: dict[int, ClipSample] = {}
    for ln, line in enumerate(lines[1:], start=2):
        what = "clip id"
        try:
            clip_id = int(line)
            if clip_id < 0 or clip_id in samples:
                raise ValueError(f"{clip_id} is negative or repeated")
            frames_file, tracks_file = _clip_files(path, clip_id)
            what = frames_file
            frames = read_array(frames_file)
            if frames.dtype != np.dtype("<f4") or frames.ndim != 4 or frames.shape[3] != 3 \
                    or 0 in frames.shape:
                raise ValueError(f"frames must be a non-empty <f4 [T, H, W, 3] array, "
                                 f"got {frames.dtype.str} {list(frames.shape)}")
            what = tracks_file
            table = read_array(tracks_file)
            if table.dtype != track_dtype(len(frames)) or table.ndim != 1:
                raise ValueError(f"tracks must be a 1-D {track_dtype(len(frames))} array, "
                                 f"got {table.ndim}-D {table.dtype}")
            tracks = Tracks(**{name: table[name] for name in table.dtype.names})
            _check_tracks(tracks)
        except (OSError, ValueError) as e:
            raise ParseError(f"{mani_path}:{ln}: {what}: {e}") from e
        samples[clip_id] = ClipSample(clip_id, frames, tracks)
    return list(samples.values())
