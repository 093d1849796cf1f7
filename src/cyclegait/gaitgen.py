"""Synthetic sequence-set datasets and the two label-noise constructions.

Each identity owns a unit prototype vector. A frame is the prototype plus a
condition offset plus jitter, rotated by a view-indexed rotation:

    frame = R_view @ (u_id + c_condition + seq_offset + frame_noise)

with c_NM = 0, c_BG a small shared-direction offset and c_CL a larger
identity-specific affine distortion around a shared clothing direction. The
shared CL direction is what lets clothing-driven mistakes learned on train
identities transfer to test identities.

Corruptions never touch clean_identity and always set noise_flag, so
detection diagnostics stay possible downstream. They copy only the samples
they relabel; the others are shared with their input.

A dataset directory is manifest.json plus train.bin and test.bin. The
manifest records what gen-data and corrupt set (make_benchmark's arguments
and the corruptions applied), so it alone regenerates the data; this module
builds, hashes, writes and checks it.
"""

from __future__ import annotations

import copy
import hashlib
import inspect
import json
import math
import os
from collections.abc import Mapping
from dataclasses import dataclass, replace
from types import MappingProxyType

import numpy as np

from .numkit import RngStream, read_header, write_header

DATASET_FORMAT_VERSION = 2  # of manifest.json; split files carry SPLIT_FORMAT_VERSION

CONDITIONS = ("NM", "BG", "CL")

FLAG_CLEAN = "clean"
FLAG_LABEL = "label-noise"
FLAG_SPLIT = "split-noise"

# Latent geometry of the generator, fixed by calibration so that (a) an
# untrained encoder scores at chance under the same-view-excluded retrieval
# protocol (adjacent views decorrelate: quarter-turn rotations in 7 of the 8
# coordinate planes) and (b) clothing sequences are markedly harder to match
# than normal walking.
ROTATED_PLANES = 7  # coordinate planes (0,1)..(12,13) rotate with view
VIEW_ANGLE = math.pi / 2  # quarter turn per view step
FRAME_JITTER = 0.12
SEQ_JITTER = 0.12
BG_SCALE = 0.35
CL_COMMON_SCALE = 1.1  # shared clothing direction strength
CL_ID_SCALE = 0.1  # identity-specific clothing offset strength
CL_MATRIX_SCALE = 0.05  # identity-specific affine mix strength


@dataclass
class SequenceSample:
    """One gait-like sequence: a set of frame vectors plus its tags."""

    frames: np.ndarray  # (T, d_in)
    identity: int
    condition: str
    view: int
    clean_identity: int
    noise_flag: str = FLAG_CLEAN


@dataclass
class Geometry:
    """Realized latent structure, regenerable from the sizes and seed."""

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


def build_geometry(n_ids: int, n_views: int, d_in: int, seed: int) -> Geometry:
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
        mix = CL_MATRIX_SCALE * mat_raw.reshape(d_in, d_in) / math.sqrt(d_in)
        cl_offsets[i] = (
            mix @ prototypes[i]
            + CL_COMMON_SCALE * cl_common_dir
            + CL_ID_SCALE * _unit(off_raw)
        )

    rotations = np.stack(
        [_rotation_matrix(d_in, ROTATED_PLANES, v * VIEW_ANGLE) for v in range(n_views)]
    )
    return Geometry(prototypes, rotations, bg_dir, cl_common_dir, cl_offsets)


def _condition_offset(geom: Geometry, identity: int, condition: str) -> np.ndarray:
    if condition == "NM":
        return np.zeros_like(geom.bg_dir)
    if condition == "BG":
        return BG_SCALE * geom.bg_dir
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
):
    """Generate the clean dataset; returns (samples, manifest).

    condition_groups maps condition name to the number of sequence groups per
    identity; every group is recorded once per view, so each identity yields
    sum(groups) * n_views sequences. Fully determined by the arguments.

    Each identity's sequences are built as one (sequences, T, d_in) block and
    every sample's frames are a view of its identity's block, so nothing may
    write into them in place: the corruptions share them too, whole samples
    where they leave a sample unchanged and the frames of those they relabel.
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
    geom = build_geometry(n_ids, n_views, d_in, seed)
    root = RngStream(seed)

    # one (condition, view) tag per sequence of an identity, in draw order
    tags = [(condition, view) for condition in CONDITIONS
            for _group in range(condition_groups.get(condition, 0)) for view in range(n_views)]
    rotations_t = geom.rotations[[view for _, view in tags]].transpose(0, 2, 1)
    samples = []
    for identity in range(n_ids):
        # per sequence an offset draw, then a jitter draw, as standard normals
        # in place; numpy's normal(0, sigma) is 0.0 + sigma * x, so scaling
        # each whole array after is bit-equal to drawing normal(0, sigma)
        seq_offs = np.empty((len(tags), d_in))
        block = np.empty((len(tags), frames_per_seq, d_in))
        draws = [out for pair in zip(seq_offs, block) for out in pair]
        stream = root.child(4).child(identity)
        for out, gen in zip(draws, stream.generators([out.size for out in draws])):
            gen.standard_normal(out=out)
        seq_offs *= SEQ_JITTER
        seq_offs += 0.0
        block *= FRAME_JITTER
        block += 0.0
        offsets = {c: _condition_offset(geom, identity, c) for c in condition_groups}
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
    present in the dataset. Only the victims are copied: every other entry of
    the new list is the input's own sample, shared, so neither may be
    changed in place.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError("noise rate must lie in [0, 1)")
    out = list(samples)
    n_corrupt = round(rate * len(out))
    descriptor = {"mode": "label", "rate": rate, "seed": seed}
    if n_corrupt == 0:
        return out, descriptor
    ids = dataset_ids(samples)
    if len(ids) < 2:
        raise ValueError("label noise needs at least two identities")
    rank = {identity: k for k, identity in enumerate(ids)}
    victims, rng = RngStream(seed, stream=11).choice(len(out), n_corrupt, replace_=False)
    victims = sorted(victims.tolist())
    # one draw per victim, in victim order: the j-th of the other identities
    # is ids[j], or ids[j + 1] from the victim's own identity on
    for v, gen in zip(victims, rng.generators([1] * len(victims))):
        j = int(gen.integers(0, len(ids) - 1, size=1)[0])
        j += j >= rank[out[v].identity]
        out[v] = replace(out[v], identity=ids[j], noise_flag=FLAG_LABEL)
    return out, descriptor


def inject_identity_split(samples, fraction: float, seed: int = 0):
    """Clothing-split noise: relabel CL sequences of early identities.

    The first floor(fraction * n_ids) identities (by index) have every CL
    sequence moved to a brand-new identity appended after the existing id
    range, with the condition tag rewritten to NM. One new identity per
    affected original that actually has CL sequences. Only the relabelled
    sequences are copied: every other entry of the new list is the input's
    own sample, shared, so neither may be changed in place. The seed argument
    is accepted for interface symmetry; the construction is deterministic.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    out = list(samples)
    ids = dataset_ids(samples)
    n_affected = int(math.floor(fraction * len(ids)))
    affected = set(ids[:n_affected])
    next_id = max(ids) + 1 if ids else 0
    new_id_of = {}
    for k, s in enumerate(out):
        if s.identity in affected and s.condition == "CL" and s.noise_flag == FLAG_CLEAN:
            if s.identity not in new_id_of:
                new_id_of[s.identity] = next_id
                next_id += 1
            out[k] = replace(s, identity=new_id_of[s.identity], condition="NM",
                             noise_flag=FLAG_SPLIT)
    descriptor = {"mode": "split", "fraction": fraction, "seed": seed}
    return out, descriptor


CORRUPTIONS = {
    "label": inject_random_label_noise,
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
) -> DatasetBundle:
    """Clean benchmark: first n_train_ids identities train, the rest test.
    The defaults are the desk-scale benchmark that gen-data writes."""
    if not 2 <= n_train_ids < n_ids:
        raise ValueError("need 2 <= n_train_ids < n_ids")
    samples, manifest = make_clean_dataset(
        n_ids, n_views, condition_groups, frames_per_seq, d_in, seed
    )
    manifest["generator"]["n_train_ids"] = n_train_ids
    train = [s for s in samples if s.identity < n_train_ids]
    test = [s for s in samples if s.identity >= n_train_ids]
    return DatasetBundle(train, test, manifest)


# gen-data's flags and a manifest's generator keys are make_benchmark's
# arguments, with its defaults (read once, as wrappers may replace the name)
GENERATOR_DEFAULTS = MappingProxyType({name: param.default for name, param
                                       in inspect.signature(make_benchmark).parameters.items()})


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

    The generator block is an object holding exactly the keys of
    GENERATOR_DEFAULTS, each of its default's type (condition_groups maps
    condition names to ints), and corruptions a list of objects, each with a
    mode that is a key of CORRUPTIONS, a numeric amount and an int seed. A block or key that is missing, unknown
    or of another type is a ValueError that names it.
    """
    try:
        gen = manifest["generator"]
        corruptions = manifest.get("corruptions", [])
        if type(gen) is not dict:
            raise ValueError(f"manifest block 'generator' must be an object, got {gen!r}")
        if type(corruptions) is not list or any(type(d) is not dict for d in corruptions):
            raise ValueError("manifest block 'corruptions' must be a list of objects, "
                             f"got {corruptions!r}")
        sizes = {key: gen[key] for key in GENERATOR_DEFAULTS}
        steps = []
        for d in corruptions:
            amount_key = "fraction" if d["mode"] == "split" else "rate"
            steps.append((d["mode"], amount_key, d[amount_key], d["seed"]))
    except KeyError as err:
        raise ValueError(f"dataset manifest lacks key {err.args[0]!r}") from None
    unknown = sorted(gen.keys() - GENERATOR_DEFAULTS.keys())
    if unknown:
        raise ValueError(f"unknown generator key {unknown[0]!r}")
    for key, value in sizes.items():  # a bool is not an int
        default = GENERATOR_DEFAULTS[key]
        if isinstance(default, Mapping):
            if type(value) is not dict or any(type(v) is not int for v in value.values()):
                raise ValueError(f"generator key {key!r} must map condition names to ints, "
                                 f"got {value!r}")
        elif type(value) is not type(default):
            raise ValueError(f"generator key {key!r} must be of type "
                             f"{type(default).__name__}, got {value!r}")
    for mode, amount_key, amount, seed in steps:
        if type(mode) is not str or mode not in CORRUPTIONS:
            raise ValueError(f"corruption key 'mode' must be one of {sorted(CORRUPTIONS)}, "
                             f"got {mode!r}")
        if isinstance(amount, bool) or not isinstance(amount, (int, float)):
            raise ValueError(f"corruption key {amount_key!r} must be a number, got {amount!r}")
        if type(seed) is not int:
            raise ValueError(f"corruption key 'seed' must be of type int, got {seed!r}")
    bundle = make_benchmark(**sizes)
    for mode, _, amount, seed in steps:
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
# and the columns below with one entry per sequence, and config_hash, the
# manifest's dataset_hash), then every sequence's frames as little-endian
# float64, in sample order.

SPLIT_FORMAT_VERSION = 2
# header column -> field, in SequenceSample's field order after frames
_SPLIT_COLUMNS = {"id": "identity", "condition": "condition", "view": "view",
                  "clean_id": "clean_identity", "noise_flag": "noise_flag"}
# header column -> the strs its entries may be; None: ints (a bool is no int)
_SPLIT_ENTRIES = {"id": None, "condition": CONDITIONS, "view": None, "clean_id": None,
                  "noise_flag": (FLAG_CLEAN, FLAG_LABEL, FLAG_SPLIT)}


def _write_split(path, samples, config_hash: str):
    columns = {col: [getattr(s, field) for s in samples] for col, field in _SPLIT_COLUMNS.items()}
    header = {"format_version": SPLIT_FORMAT_VERSION, "n_sequences": len(samples),
              "d_in": samples[0].frames.shape[1] if samples else 0,
              "lengths": [s.frames.shape[0] for s in samples], **columns,
              "config_hash": config_hash}
    with open(path, "wb") as fh:
        write_header(fh, header)
        if samples:
            fh.write(np.concatenate([s.frames for s in samples]).astype("<f8", copy=False))


def _read_split(path, with_frames: bool = True):
    """Samples of one split file; their frames are views of one payload array.

    The header and the payload size are checked either way; with_frames False
    then returns None without reading the frames."""
    with open(path, "rb") as fh:
        header = read_header(fh, path, "dataset split", SPLIT_FORMAT_VERSION,
                             {"n_sequences": int, "d_in": int, "lengths": list,
                              **dict.fromkeys(_SPLIT_COLUMNS, list)})
        n, d_in, lengths = header["n_sequences"], header["d_in"], header["lengths"]
        for col in ("lengths", *_SPLIT_COLUMNS):
            if len(header[col]) != n:
                raise ValueError(f"{path}: header column {col!r} needs {n} entries")
        if not all(type(length) is int and length >= 1 for length in lengths):
            raise ValueError(f"{path}: header key 'lengths' needs a frame count of at least "
                             "1 per sequence")
        for col, allowed in _SPLIT_ENTRIES.items():
            types = set(map(type, header[col]))  # set(header[col]) may meet a list
            if allowed is None and not types <= {int}:
                raise ValueError(f"{path}: header key {col!r} needs an int per sequence")
            if allowed and not (types <= {str} and set(header[col]) <= set(allowed)):
                raise ValueError(f"{path}: header key {col!r} needs one of "
                                 f"{', '.join(allowed)} per sequence")
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


def dataset_hash(manifest: dict) -> str:
    """sha256 of a dataset manifest, leaving out its own config_hash entry."""
    manifest = {k: v for k, v in manifest.items() if k != "config_hash"}
    return hashlib.sha256(json.dumps(manifest, sort_keys=True).encode("utf-8")).hexdigest()


def save_bundle(bundle: DatasetBundle, outdir):
    """Write bundle to outdir. manifest.json and both split headers carry the
    manifest's dataset_hash as config_hash; bundle itself is left unchanged."""
    digest = dataset_hash(bundle.manifest)
    os.makedirs(outdir, exist_ok=True)
    _write_split(os.path.join(outdir, "train.bin"), bundle.train, digest)
    _write_split(os.path.join(outdir, "test.bin"), bundle.test, digest)
    with open(os.path.join(outdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump({**bundle.manifest, "config_hash": digest}, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_bundle(datadir, frames=("train", "test")) -> DatasetBundle:
    """The dataset saved in datadir, with the frames of the splits named in
    frames. A manifest of another format_version is refused. Both split files
    are checked (header and payload size); a split not named is not read
    further, and its bundle field is None."""
    with open(os.path.join(datadir, "manifest.json"), "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    version = manifest.get("format_version") if isinstance(manifest, dict) else None
    if version != DATASET_FORMAT_VERSION:
        raise ValueError(f"{datadir} holds a dataset manifest in format {version}, not "
                         f"{DATASET_FORMAT_VERSION}; rebuild the dataset with gen-data")
    return DatasetBundle(_read_split(os.path.join(datadir, "train.bin"),
                                     with_frames="train" in frames),
                         _read_split(os.path.join(datadir, "test.bin"),
                                     with_frames="test" in frames), manifest)
