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
from dataclasses import asdict, dataclass

import numpy as np

from .numkit import RngStream

DATASET_FORMAT_VERSION = 1

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

    samples = []
    for identity in range(n_ids):
        s = root.child(4).child(identity)
        for condition in CONDITIONS:
            for _group in range(condition_groups.get(condition, 0)):
                for view in range(n_views):
                    seq_off, s = s.normal(d_in, params.seq_jitter)
                    noise, s = s.normal(frames_per_seq * d_in, params.frame_jitter)
                    base = (
                        geom.prototypes[identity]
                        + _condition_offset(geom, params, identity, condition)
                        + seq_off
                    )
                    frames = base + noise.reshape(frames_per_seq, d_in)
                    frames = frames @ geom.rotations[view].T
                    samples.append(
                        SequenceSample(frames, identity, condition, view, identity)
                    )

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

    @property
    def n_train_classes(self) -> int:
        return max(s.identity for s in self.train) + 1

    @property
    def d_in(self) -> int:
        return self.train[0].frames.shape[1]


def make_benchmark(
    n_ids: int = 60,
    n_train_ids: int = 40,
    n_views: int = 4,
    condition_groups: dict | None = None,
    frames_per_seq: int = 30,
    d_in: int = 16,
    seed: int = 1,
    params: GeometryParams | None = None,
) -> DatasetBundle:
    """Clean benchmark: first n_train_ids identities train, the rest test."""
    if not 2 <= n_train_ids < n_ids:
        raise ValueError("need 2 <= n_train_ids < n_ids")
    condition_groups = condition_groups or {"NM": 4, "BG": 3, "CL": 3}
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
    """Rebuild a dataset byte-for-byte from its manifest."""
    gen = manifest["generator"]
    bundle = make_benchmark(
        n_ids=gen["n_ids"],
        n_train_ids=gen["n_train_ids"],
        n_views=gen["n_views"],
        condition_groups=gen["condition_groups"],
        frames_per_seq=gen["frames_per_seq"],
        d_in=gen["d_in"],
        seed=gen["seed"],
        params=GeometryParams.from_dict(gen["geometry"]),
    )
    for desc in manifest.get("corruptions", []):
        amount = desc["fraction"] if desc["mode"] == "split" else desc["rate"]
        bundle = corrupt_bundle(bundle, desc["mode"], amount, desc["seed"])
    return bundle


def geometry_of(manifest: dict) -> Geometry:
    """Latent geometry for audits; regenerated, never stored with the data."""
    gen = manifest["generator"]
    return build_geometry(
        gen["n_ids"], gen["n_views"], gen["d_in"], gen["seed"],
        GeometryParams.from_dict(gen["geometry"]),
    )


def nearest_prototype_ids(samples, geom: Geometry) -> np.ndarray:
    """Oracle classifier: unrotate the mean frame, pick the nearest prototype."""
    preds = np.zeros(len(samples), dtype=int)
    for k, s in enumerate(samples):
        mean_frame = s.frames.mean(axis=0)
        unrotated = geom.rotations[s.view].T @ mean_frame
        dists = np.linalg.norm(geom.prototypes - unrotated, axis=1)
        preds[k] = int(np.argmin(dists))
    return preds


# ---------------------------------------------------------------------------
# training-time augmentation


@dataclass(frozen=True)
class AugmentationSpec:
    name: str = "default"
    drop_prob: float = 0.2
    min_frames: int = 4
    jitter_sigma: float = 0.05
    duplicate_prob: float = 0.0

    @property
    def is_identity(self) -> bool:
        return self.drop_prob == 0.0 and self.jitter_sigma == 0.0 and self.duplicate_prob == 0.0


AUGMENTATIONS = {
    "none": AugmentationSpec(name="none", drop_prob=0.0, jitter_sigma=0.0, duplicate_prob=0.0),
    "default": AugmentationSpec(name="default"),
    "strong": AugmentationSpec(name="strong", drop_prob=0.3, jitter_sigma=0.1, duplicate_prob=0.2),
}


def augment_frame_sets(frame_sets, spec: AugmentationSpec, rng: RngStream):
    """Independent augmentation per sample, drawn in one batch for speed.

    Per sample: frame dropout, where a draw that keeps fewer than min_frames
    frames keeps the min_frames with the largest survival draws instead;
    optional duplication of one kept frame; additive jitter. The jitter block
    is drawn for every slot regardless of the keep pattern, so draws stay
    addressable. Returns (list of augmented frame arrays, advanced rng).
    """
    if spec.is_identity:
        return [np.asarray(f, dtype=np.float64) for f in frame_sets], rng
    b = len(frame_sets)
    t_max = max(f.shape[0] for f in frame_sets)
    d = frame_sets[0].shape[1]
    u, rng = rng.uniform(b * t_max)
    u = u.reshape(b, t_max)
    dup_u = dup_pos = None
    if spec.duplicate_prob > 0.0:
        dup_flat, rng = rng.uniform(2 * b)
        dup_u, dup_pos = dup_flat[:b], dup_flat[b:]
    jitter, rng = rng.normal(b * (t_max + 1) * d, spec.jitter_sigma)
    jitter = jitter.reshape(b, t_max + 1, d)

    out = []
    for i, frames in enumerate(frame_sets):
        t = frames.shape[0]
        keep = np.ones(t, dtype=bool)
        if spec.drop_prob > 0.0 and t > spec.min_frames:
            ui = u[i, :t]
            keep = ui >= spec.drop_prob
            if keep.sum() < spec.min_frames:
                order = np.argsort(-ui, kind="stable")
                keep = np.zeros(t, dtype=bool)
                keep[order[: spec.min_frames]] = True
        aug = frames[keep] + jitter[i, :t][keep] if spec.jitter_sigma > 0.0 else frames[keep]
        if dup_u is not None and dup_u[i] < spec.duplicate_prob:
            j = min(int(dup_pos[i] * aug.shape[0]), aug.shape[0] - 1)
            dup_frame = frames[keep][j] + jitter[i, t_max] if spec.jitter_sigma > 0.0 else aug[j]
            aug = np.concatenate([aug, dup_frame[None, :]], axis=0)
        out.append(aug)
    return out, rng


# ---------------------------------------------------------------------------
# persistence


def _sample_to_json(s: SequenceSample) -> dict:
    return {
        "id": s.identity,
        "clean_id": s.clean_identity,
        "condition": s.condition,
        "view": s.view,
        "noise_flag": s.noise_flag,
        "frames": s.frames.tolist(),
    }


def _sample_from_json(d: dict) -> SequenceSample:
    return SequenceSample(
        frames=np.asarray(d["frames"], dtype=np.float64),
        identity=int(d["id"]),
        condition=d["condition"],
        view=int(d["view"]),
        clean_identity=int(d["clean_id"]),
        noise_flag=d["noise_flag"],
    )


def write_samples_jsonl(path, samples, extra_header: dict | None = None):
    header = {"format_version": DATASET_FORMAT_VERSION, "n_sequences": len(samples)}
    if extra_header:
        header.update(extra_header)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for s in samples:
            fh.write(json.dumps(_sample_to_json(s), sort_keys=True) + "\n")


def read_samples_jsonl(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        if header.get("format_version") != DATASET_FORMAT_VERSION:
            raise ValueError(f"unsupported dataset format in {path}")
        return [_sample_from_json(json.loads(line)) for line in fh if line.strip()]


def save_bundle(bundle: DatasetBundle, outdir, extra_header: dict | None = None):
    os.makedirs(outdir, exist_ok=True)
    write_samples_jsonl(os.path.join(outdir, "train.jsonl"), bundle.train, extra_header)
    write_samples_jsonl(os.path.join(outdir, "test.jsonl"), bundle.test, extra_header)
    with open(os.path.join(outdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(bundle.manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_bundle(datadir) -> DatasetBundle:
    with open(os.path.join(datadir, "manifest.json"), "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    train = read_samples_jsonl(os.path.join(datadir, "train.jsonl"))
    test = read_samples_jsonl(os.path.join(datadir, "test.jsonl"))
    return DatasetBundle(train, test, manifest)
