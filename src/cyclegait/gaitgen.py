"""Synthetic sequence-set datasets and the three label-noise constructions.

Each identity owns a unit prototype vector. A frame is the prototype plus a
condition offset plus jitter, rotated by a view-indexed rotation:

    frame = R_view @ (u_id + c_condition + seq_offset + frame_noise)

with c_NM = 0, c_BG a small shared-direction offset and c_CL a larger
identity-specific affine distortion around a shared clothing direction. The
shared CL direction is what lets clothing-driven mistakes learned on train
identities transfer to test identities.

Corruptions never touch clean_identity and always set noise_flag, so
detection diagnostics stay possible downstream.
"""

from __future__ import annotations

import copy
import json
import math
import os
from collections.abc import Mapping
from dataclasses import asdict, dataclass, fields
from types import MappingProxyType

import numpy as np

from .numkit import RngStream, read_header

DATASET_FORMAT_VERSION = 1  # of manifest.json; split files carry SPLIT_FORMAT_VERSION

CONDITIONS = ("NM", "BG", "CL")

FLAG_CLEAN = "clean"
FLAG_LABEL = "label-noise"
FLAG_AUG = "augmentation-noise"
FLAG_SPLIT = "split-noise"


@dataclass
class SequenceSample:
    """One gait-like sequence: a set of frame vectors plus its tags."""

    frames: np.ndarray  # (T, d_in)
    identity: int
    condition: str
    view: int
    clean_identity: int
    noise_flag: str = FLAG_CLEAN


@dataclass(frozen=True)
class GeometryParams:
    """Latent-space constants of the generator; all recorded in the manifest.

    The defaults are calibrated so that (a) an untrained encoder scores at
    chance under the same-view-excluded retrieval protocol (adjacent views
    decorrelate: quarter-turn rotations in 7 of the 8 coordinate planes) and
    (b) clothing sequences are markedly harder to match than normal walking.
    """

    rotated_planes: int = 7  # coordinate planes (0,1)..(12,13) rotate with view
    view_angle: float = 1.5707963267948966  # quarter turn per view step
    frame_jitter: float = 0.12
    seq_jitter: float = 0.12
    bg_scale: float = 0.35
    cl_common_scale: float = 1.1  # shared clothing direction strength
    cl_id_scale: float = 0.1  # identity-specific clothing offset strength
    cl_matrix_scale: float = 0.05  # identity-specific affine mix strength
    cl_attenuation: float = 0.0  # fraction of the identity signal hidden by clothing

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "GeometryParams":
        """The params a manifest records; a key that is not a field, or a value
        that is not a number, is a ValueError."""
        known = {f.name for f in fields(cls)}
        for key, value in d.items():
            if key not in known:
                raise ValueError(f"unknown generator geometry key {key!r}")
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"generator geometry key {key!r} holds a {type(value).__name__}")
        return cls(**{k: type(getattr(cls, k))(v) for k, v in d.items()})


@dataclass
class Geometry:
    """Realized latent structure, regenerable from (params, seed)."""

    prototypes: np.ndarray  # (n_ids, d_in), unit rows
    rotations: np.ndarray  # (n_views, d_in, d_in)
    bg_dir: np.ndarray
    cl_common_dir: np.ndarray
    cl_offsets: np.ndarray  # (n_ids, d_in), the full c_CL per identity


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _rotation_matrix(d_in: int, planes: int, angle: float) -> np.ndarray:
    rot = np.eye(d_in)
    for p in range(planes):
        i, j = 2 * p, 2 * p + 1
        if j >= d_in:
            break
        c, s = math.cos(angle), math.sin(angle)
        block = np.eye(d_in)
        block[i, i] = c
        block[i, j] = -s
        block[j, i] = s
        block[j, j] = c
        rot = block @ rot
    return rot


def build_geometry(n_ids: int, n_views: int, d_in: int, seed: int, params: GeometryParams) -> Geometry:
    root = RngStream(seed)
    proto_raw, _ = root.child(1).normal(n_ids * d_in)
    prototypes = proto_raw.reshape(n_ids, d_in)
    prototypes /= np.linalg.norm(prototypes, axis=1, keepdims=True)

    dir_stream = root.child(2)
    bg_raw, dir_stream = dir_stream.normal(d_in)
    cl_raw, dir_stream = dir_stream.normal(d_in)
    bg_dir = _unit(bg_raw)
    cl_common_dir = _unit(cl_raw)

    cl_offsets = np.zeros((n_ids, d_in))
    for i in range(n_ids):
        s = root.child(3).child(i)
        mat_raw, s = s.normal(d_in * d_in)
        off_raw, s = s.normal(d_in)
        mix = params.cl_matrix_scale * mat_raw.reshape(d_in, d_in) / math.sqrt(d_in)
        cl_offsets[i] = (
            mix @ prototypes[i]
            - params.cl_attenuation * prototypes[i]
            + params.cl_common_scale * cl_common_dir
            + params.cl_id_scale * _unit(off_raw)
        )

    rotations = np.stack(
        [_rotation_matrix(d_in, params.rotated_planes, v * params.view_angle) for v in range(n_views)]
    )
    return Geometry(prototypes, rotations, bg_dir, cl_common_dir, cl_offsets)


def _condition_offset(geom: Geometry, params: GeometryParams, identity: int, condition: str) -> np.ndarray:
    if condition == "NM":
        return np.zeros_like(geom.bg_dir)
    if condition == "BG":
        return params.bg_scale * geom.bg_dir
    if condition == "CL":
        return geom.cl_offsets[identity]
    raise ValueError(f"unknown condition {condition!r}")


def make_clean_dataset(
    n_ids: int,
    n_views: int,
    condition_groups: dict,
    frames_per_seq: int,
    d_in: int,
    seed: int,
    params: GeometryParams | None = None,
):
    """Generate the clean dataset; returns (samples, manifest).

    condition_groups maps condition name to the number of sequence groups per
    identity; every group is recorded once per view, so each identity yields
    sum(groups) * n_views sequences. Fully determined by the arguments.

    Each identity's sequences are built as one (sequences, T, d_in) block and
    every sample's frames are a view of its identity's block, so nothing may
    write into them in place: the corruptions' copies share them too.
    """
    if n_ids < 2:
        raise ValueError("need at least two identities")
    if n_views < 1:
        raise ValueError("need at least one view")
    if frames_per_seq < 1:
        raise ValueError("need at least one frame per sequence")
    for cond in condition_groups:
        if cond not in CONDITIONS:
            raise ValueError(f"unknown condition {cond!r}")
    params = params or GeometryParams()
    geom = build_geometry(n_ids, n_views, d_in, seed, params)
    root = RngStream(seed)

    # one (condition, view) tag per sequence of an identity, in draw order
    tags = [(condition, view) for condition in CONDITIONS
            for _group in range(condition_groups.get(condition, 0)) for view in range(n_views)]
    rotations_t = geom.rotations[[view for _, view in tags]].transpose(0, 2, 1)
    samples = []
    for identity in range(n_ids):
        s = root.child(4).child(identity)
        seq_offs = np.empty((len(tags), d_in))
        block = np.empty((len(tags), frames_per_seq, d_in))
        for k in range(len(tags)):
            seq_offs[k], s = s.normal(d_in, params.seq_jitter)
            noise, s = s.normal(frames_per_seq * d_in, params.frame_jitter)
            block[k] = noise.reshape(frames_per_seq, d_in)
        offsets = {c: _condition_offset(geom, params, identity, c) for c in condition_groups}
        base = geom.prototypes[identity] + np.array([offsets[c] for c, _ in tags]).reshape(-1, d_in)
        block = np.matmul((base + seq_offs)[:, None, :] + block, rotations_t)
        samples.extend(SequenceSample(frames, identity, condition, view, identity)
                       for frames, (condition, view) in zip(block, tags))

    manifest = {
        "format_version": DATASET_FORMAT_VERSION,
        "generator": {
            "n_ids": n_ids,
            "n_views": n_views,
            "condition_groups": dict(condition_groups),
            "frames_per_seq": frames_per_seq,
            "d_in": d_in,
            "seed": seed,
            "geometry": params.to_dict(),
        },
        "corruptions": [],
    }
    return samples, manifest


def dataset_ids(samples) -> list:
    return sorted({s.identity for s in samples})


def inject_random_label_noise(samples, rate: float, seed: int):
    """Relabel exactly round(rate * n) sequences to a different identity.

    Returns (new samples, corruption descriptor). Victims are drawn without
    replacement; the new identity is uniform over the other identities
    present in the dataset.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError("noise rate must lie in [0, 1)")
    out = [copy.copy(s) for s in samples]
    n_corrupt = round(rate * len(out))
    descriptor = {"mode": "label", "rate": rate, "seed": seed}
    if n_corrupt == 0:
        return out, descriptor
    ids = dataset_ids(samples)
    if len(ids) < 2:
        raise ValueError("label noise needs at least two identities")
    rng = RngStream(seed, stream=11)
    victims, rng = rng.choice(len(out), n_corrupt, replace_=False)
    for v in sorted(victims.tolist()):
        others = [i for i in ids if i != out[v].identity]
        pick, rng = rng.integers(1, 0, len(others))
        out[v].identity = others[int(pick[0])]
        out[v].noise_flag = FLAG_LABEL
    return out, descriptor


# Strength of the appearance corruption, fixed by calibration: a
# nearest-prototype classifier must lose >= 10 accuracy points on perturbed
# sequences while labels stay untouched.
AUG_NOISE_OFFSET = 1.1
AUG_NOISE_MULT_SIGMA = 0.35


def inject_augmentation_noise(samples, rate: float, seed: int):
    """Strong appearance perturbation of round(rate * n) sequences.

    Frames get a per-frame multiplicative distortion plus an amplified
    condition-like offset in a random direction; labels are untouched.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError("noise rate must lie in [0, 1)")
    out = [copy.copy(s) for s in samples]
    n_corrupt = round(rate * len(out))
    descriptor = {"mode": "augmentation", "rate": rate, "seed": seed}
    if n_corrupt == 0:
        return out, descriptor
    rng = RngStream(seed, stream=12)
    victims, rng = rng.choice(len(out), n_corrupt, replace_=False)
    for v in sorted(victims.tolist()):
        frames = out[v].frames
        t, d = frames.shape
        dir_raw, rng = rng.normal(d)
        factors, rng = rng.normal(t, AUG_NOISE_MULT_SIGMA)
        offset = AUG_NOISE_OFFSET * _unit(dir_raw)
        out[v].frames = frames * (1.0 + factors[:, None]) + offset
        out[v].noise_flag = FLAG_AUG
    return out, descriptor


def inject_identity_split(samples, fraction: float, seed: int = 0):
    """Clothing-split noise: relabel CL sequences of early identities.

    The first floor(fraction * n_ids) identities (by index) have every CL
    sequence moved to a brand-new identity appended after the existing id
    range, with the condition tag rewritten to NM. One new identity per
    affected original that actually has CL sequences. The seed argument is
    accepted for interface symmetry; the construction is deterministic.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    out = [copy.copy(s) for s in samples]
    ids = dataset_ids(samples)
    n_affected = int(math.floor(fraction * len(ids)))
    affected = set(ids[:n_affected])
    next_id = max(ids) + 1 if ids else 0
    new_id_of = {}
    for s in out:
        if s.identity in affected and s.condition == "CL" and s.noise_flag == FLAG_CLEAN:
            if s.identity not in new_id_of:
                new_id_of[s.identity] = next_id
                next_id += 1
            s.identity = new_id_of[s.identity]
            s.condition = "NM"
            s.noise_flag = FLAG_SPLIT
    descriptor = {"mode": "split", "fraction": fraction, "seed": seed}
    return out, descriptor


CORRUPTIONS = {
    "label": inject_random_label_noise,
    "augmentation": inject_augmentation_noise,
    "split": inject_identity_split,
}


@dataclass
class DatasetBundle:
    """Train and test splits plus the manifest that regenerates both."""

    train: list
    test: list
    manifest: dict


def make_benchmark(
    n_ids: int = 60,
    n_train_ids: int = 40,
    n_views: int = 4,
    condition_groups: Mapping[str, int] = MappingProxyType({"NM": 4, "BG": 3, "CL": 3}),
    frames_per_seq: int = 30,
    d_in: int = 16,
    seed: int = 1,
    params: GeometryParams | None = None,
) -> DatasetBundle:
    """Clean benchmark: first n_train_ids identities train, the rest test.
    The defaults are the desk-scale benchmark that gen-data writes."""
    if not 2 <= n_train_ids < n_ids:
        raise ValueError("need 2 <= n_train_ids < n_ids")
    samples, manifest = make_clean_dataset(
        n_ids, n_views, condition_groups, frames_per_seq, d_in, seed, params
    )
    manifest["generator"]["n_train_ids"] = n_train_ids
    train = [s for s in samples if s.identity < n_train_ids]
    test = [s for s in samples if s.identity >= n_train_ids]
    return DatasetBundle(train, test, manifest)


def corrupt_bundle(bundle: DatasetBundle, mode: str, amount: float, seed: int) -> DatasetBundle:
    """Apply a corruption to the train split; the manifest records it."""
    if mode not in CORRUPTIONS:
        raise ValueError(f"unknown corruption mode {mode!r}")
    new_train, descriptor = CORRUPTIONS[mode](bundle.train, amount, seed)
    manifest = copy.deepcopy(bundle.manifest)
    manifest["corruptions"].append(descriptor)
    return DatasetBundle(new_train, list(bundle.test), manifest)


def regenerate_from_manifest(manifest: dict) -> DatasetBundle:
    """Rebuild a dataset byte-for-byte from its manifest.

    A value the manifest lacks, or a geometry key the generator does not
    take, is a ValueError that names the key.
    """
    try:
        gen = manifest["generator"]
        sizes = {key: gen[key] for key in ("n_ids", "n_train_ids", "n_views",
                                           "condition_groups", "frames_per_seq", "d_in", "seed")}
        geometry = gen["geometry"]
        steps = [(d["mode"], d["fraction"] if d["mode"] == "split" else d["rate"], d["seed"])
                 for d in manifest.get("corruptions", [])]
    except KeyError as err:
        raise ValueError(f"dataset manifest lacks key {err.args[0]!r}") from None
    bundle = make_benchmark(**sizes, params=GeometryParams.from_dict(geometry))
    for mode, amount, seed in steps:
        bundle = corrupt_bundle(bundle, mode, amount, seed)
    return bundle


# ---------------------------------------------------------------------------
# training-time augmentation


@dataclass(frozen=True)
class AugmentationSpec:
    drop_prob: float = 0.2
    min_frames: int = 4
    jitter_sigma: float = 0.05


def augment_frame_sets(frame_sets, spec: AugmentationSpec, rng: RngStream):
    """Independent augmentation per sample, drawn in one batch for speed.

    Per sample: frame dropout, where a draw that keeps fewer than min_frames
    frames keeps the min_frames with the largest survival draws instead; then
    additive jitter. The jitter block is drawn for every slot regardless of
    the keep pattern, one slot past the longest set included, so draws stay
    addressable. Returns (list of augmented frame arrays, advanced rng).
    """
    b = len(frame_sets)
    t_max = max(f.shape[0] for f in frame_sets)
    d = frame_sets[0].shape[1]
    u, rng = rng.uniform(b * t_max)
    u = u.reshape(b, t_max)
    jitter, rng = rng.normal(b * (t_max + 1) * d, spec.jitter_sigma)
    jitter = jitter.reshape(b, t_max + 1, d)

    lengths = np.array([f.shape[0] for f in frame_sets])
    keep = np.arange(t_max) < lengths[:, None]
    if spec.drop_prob > 0.0:
        droppable = lengths > spec.min_frames
        keep &= (u >= spec.drop_prob) | ~droppable[:, None]
        for i in np.flatnonzero(droppable & (keep.sum(axis=1) < spec.min_frames)):
            # the min_frames largest draws include every frame kept so far
            order = np.argsort(-u[i, : lengths[i]], kind="stable")
            keep[i, order[: spec.min_frames]] = True
    rows, cols = np.nonzero(keep)
    starts = np.cumsum(lengths) - lengths
    kept = np.take(np.concatenate(frame_sets), starts[rows] + cols, axis=0)
    if spec.jitter_sigma > 0.0:
        kept += np.take(jitter.reshape(-1, d), rows * (t_max + 1) + cols, axis=0)
    bounds = np.concatenate([[0], np.cumsum(keep.sum(axis=1))]).tolist()
    return [kept[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])], rng


# ---------------------------------------------------------------------------
# persistence: manifest.json plus train.bin and test.bin. A split file is one
# sorted-key JSON header line (format_version, n_sequences, d_in, then "lengths"
# and the columns below with one entry per sequence, and extras like config_hash),
# then every sequence's frames as little-endian float64, in sample order.

SPLIT_FORMAT_VERSION = 2
# header column -> field, in SequenceSample's field order after frames
_SPLIT_COLUMNS = {"id": "identity", "condition": "condition", "view": "view",
                  "clean_id": "clean_identity", "noise_flag": "noise_flag"}


def _write_split(path, samples, extra_header: dict | None = None):
    columns = {col: [getattr(s, field) for s in samples] for col, field in _SPLIT_COLUMNS.items()}
    header = {"format_version": SPLIT_FORMAT_VERSION, "n_sequences": len(samples),
              "d_in": samples[0].frames.shape[1] if samples else 0,
              "lengths": [s.frames.shape[0] for s in samples], **columns, **(extra_header or {})}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        if samples:
            fh.write(np.concatenate([s.frames for s in samples]).astype("<f8", copy=False))


def _read_split(path, with_frames: bool = True):
    """Samples of one split file; their frames are views of one payload array.

    The header and the payload size are checked either way; with_frames False
    then returns None without reading the frames."""
    with open(path, "rb") as fh:
        header = read_header(fh, path, "dataset split", SPLIT_FORMAT_VERSION,
                             {"n_sequences": int, "d_in": int, "lengths": list})
        n, d_in, lengths = header["n_sequences"], header["d_in"], header["lengths"]
        for col in ("lengths", *_SPLIT_COLUMNS):
            if len(header.get(col, ())) != n:
                raise ValueError(f"{path}: header column {col!r} needs {n} entries")
        if not all(type(length) is int and length >= 1 for length in lengths):
            raise ValueError(f"{path}: header key 'lengths' needs a frame count of at least "
                             "1 per sequence")
        n_rows = sum(lengths)
        payload_bytes = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload_bytes != 8 * n_rows * d_in:
            raise ValueError(f"{path}: payload holds {payload_bytes} bytes, header says "
                             f"{n_rows * d_in} float64")
        if not with_frames:
            return None
        rows = np.fromfile(fh, dtype="<f8").astype(np.float64, copy=False).reshape(n_rows, d_in)
    bounds = np.cumsum([0, *lengths]).tolist()
    return [SequenceSample(rows[lo:hi], *tags) for lo, hi, *tags in zip(
        bounds[:-1], bounds[1:], *(header[col] for col in _SPLIT_COLUMNS))]


def save_bundle(bundle: DatasetBundle, outdir, extra_header: dict | None = None):
    os.makedirs(outdir, exist_ok=True)
    _write_split(os.path.join(outdir, "train.bin"), bundle.train, extra_header)
    _write_split(os.path.join(outdir, "test.bin"), bundle.test, extra_header)
    with open(os.path.join(outdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(bundle.manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_bundle(datadir, with_train: bool = True) -> DatasetBundle:
    """The dataset saved in datadir. With with_train False, train.bin is still
    checked (header and payload size) but not read, and bundle.train is None."""
    train_bin = os.path.join(datadir, "train.bin")
    if os.path.exists(os.path.join(datadir, "train.jsonl")) and not os.path.exists(train_bin):
        raise ValueError(f"{datadir} holds a dataset in JSONL format 1, which is no longer "
                         "read; rebuild it with gen-data, as its manifest.json records every value")
    with open(os.path.join(datadir, "manifest.json"), "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    return DatasetBundle(_read_split(train_bin, with_frames=with_train),
                         _read_split(os.path.join(datadir, "test.bin")), manifest)
