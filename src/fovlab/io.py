"""Bit-exact file formats: FVPC point clouds, PGM masks, scene JSON.

Formats:
  - FVPC: little-endian binary. Magic "FVPC", u32 version=1, pose as 7 f64
    (px,py,pz,qw,qx,qy,qz), u32 point count, then count x 3 f32.
  - Mask: binary PGM (P5), maxval 255, visible=255, invisible=0.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import DataError
from .types import FovMask, GridSpec, PointCloud, Pose

FVPC_MAGIC = b"FVPC"
FVPC_VERSION = 1


def save_point_cloud(path, cloud: PointCloud) -> None:
    pts = cloud.points.astype("<f4")
    pose = cloud.pose
    with open(path, "wb") as f:
        f.write(FVPC_MAGIC)
        f.write(struct.pack("<I", FVPC_VERSION))
        f.write(struct.pack("<7d", *pose.position, *pose.quaternion))
        f.write(struct.pack("<I", pts.shape[0]))
        f.write(pts.tobytes(order="C"))


def load_point_cloud(path, frame_id: int = 0) -> PointCloud:
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 4 + 4 + 56 + 4 or data[:4] != FVPC_MAGIC:
        raise DataError(f"{path}: not an FVPC file")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != FVPC_VERSION:
        raise DataError(f"{path}: unsupported FVPC version {version}")
    vals = struct.unpack_from("<7d", data, 8)
    (count,) = struct.unpack_from("<I", data, 64)
    body = data[68:]
    if len(body) != count * 12:
        raise DataError(f"{path}: truncated FVPC body (expected {count} points)")
    pts = np.frombuffer(body, dtype="<f4").reshape(count, 3).astype(np.float64)
    pose = Pose(np.array(vals[:3]), np.array(vals[3:]))
    return PointCloud(pts, pose, frame_id)


def save_mask_pgm(path, mask: FovMask) -> None:
    """Write a FovMask as binary PGM; rows run from +y (top) to -y (bottom)."""
    res = mask.spec.resolution
    img = np.where(mask.mask, 255, 0).astype(np.uint8)
    # raster row r, column c  <->  grid cell (ix=c, iy=res-1-r)
    raster = img[:, ::-1].T
    with open(path, "wb") as f:
        f.write(f"P5\n{res} {res}\n255\n".encode("ascii"))
        f.write(raster.tobytes(order="C"))


def load_mask_pgm(path, spec: GridSpec | None = None) -> FovMask:
    with open(path, "rb") as f:
        data = f.read()
    tokens = []
    i = 0
    while len(tokens) < 4 and i < len(data):
        while i < len(data) and data[i : i + 1].isspace():
            i += 1
        if data[i : i + 1] == b"#":  # comment line
            while i < len(data) and data[i] != 0x0A:
                i += 1
            continue
        start = i
        while i < len(data) and not data[i : i + 1].isspace():
            i += 1
        tokens.append(data[start:i])
    if len(tokens) < 4 or tokens[0] != b"P5":
        raise DataError(f"{path}: not a binary PGM")
    width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if maxval != 255 or width != height:
        raise DataError(f"{path}: expected square maxval-255 PGM")
    body = data[i + 1 : i + 1 + width * height]
    if len(body) != width * height:
        raise DataError(f"{path}: truncated PGM body")
    raster = np.frombuffer(body, dtype=np.uint8).reshape(height, width)
    grid = raster.T[:, ::-1] > 0
    if spec is None:
        spec = GridSpec(extent=float(width) / 2.0, resolution=width)
    elif spec.resolution != width:
        raise DataError(f"{path}: resolution {width} does not match spec {spec.resolution}")
    return FovMask(spec, grid)


def _json_list(items: list, indent: int) -> str:
    """A list of encoded JSON values, laid out as json.dumps(indent=2) does."""
    pad = "\n" + " " * (indent + 2)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * indent + "]" if items else "[]"


def save_scene(path, scene) -> None:
    """Write the bytes of json.dumps(doc, indent=2) plus a newline, where doc is
    {"bounds", "sensor": {"position", "quaternion"}, "obstacles"} of floats. json
    encodes in C only without indent, so one such call formats every number."""
    flat = [float(scene.bounds), *scene.sensor.position.tolist(), *scene.sensor.quaternion.tolist()]
    for poly in scene.obstacles:
        flat += poly.ravel().tolist()
    num = json.dumps(flat)[1:-1].split(", ")
    vertices = iter([f"[\n        {x},\n        {y}\n      ]" for x, y in zip(num[8::2], num[9::2])])
    polys = [_json_list([next(vertices) for _ in poly], 4) for poly in scene.obstacles]
    Path(path).write_text(
        f'{{\n  "bounds": {num[0]},\n  "sensor": {{\n    "position": {_json_list(num[1:4], 4)},\n'
        f'    "quaternion": {_json_list(num[4:8], 4)}\n  }},\n  "obstacles": {_json_list(polys, 2)}\n}}\n')


def load_scene(path):
    from .scenes import Scene  # local import to avoid a cycle

    try:
        doc = json.loads(Path(path).read_text())
        sensor = Pose(np.array(doc["sensor"]["position"]), np.array(doc["sensor"]["quaternion"]))
        obstacles = [np.array(poly, dtype=np.float64) for poly in doc["obstacles"]]
        return Scene(obstacles=obstacles, sensor=sensor, bounds=float(doc["bounds"]))
    except (KeyError, ValueError, TypeError) as e:
        raise DataError(f"{path}: malformed scene JSON ({e})") from e


__all__ = [
    "save_point_cloud", "load_point_cloud",
    "save_mask_pgm", "load_mask_pgm",
    "save_scene", "load_scene",
]
