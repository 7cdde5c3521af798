"""Source hygiene: no unused top-level imports, no dangling ``__all__`` entries
(nor, outside ``__init__`` files, re-exported ones), random streams built only
by the seeding helpers in ``types.py``, every function the benchmark traces
still there under its name, and a ledger of the module-level functions and
classes, and the non-dunder methods, that nothing in the program reaches."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fovlab"
MODULES = sorted(PACKAGE.rglob("*.py"))


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _is_all(node) -> bool:
    """Whether a module-level statement assigns ``__all__``."""
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if _is_all(node):
            used |= {elt.value for elt in node.value.elts}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_all_entries_resolve(path):
    module = importlib.import_module(_module_name(path))
    missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
    assert missing == []


def _defined_names(tree) -> set[str]:
    """Names a module's top-level definitions and assignments bind."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: str(p.relative_to(PACKAGE)))
def test_all_lists_only_own_definitions(path):
    """Outside ``__init__`` files, ``__all__`` re-exports nothing: an import
    listed there would count as used and hide from the unused-import check."""
    tree = ast.parse(path.read_text())
    listed = {elt.value for node in tree.body if _is_all(node) for elt in node.value.elts}
    assert listed - _defined_names(tree) == set()


SEEDING = {"SeedSequence", "default_rng"}


def _seeding_calls(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in SEEDING:
                calls.append(f"{path.name}:{node.lineno}: {name}")
    return calls


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "types.py"],
                         ids=lambda p: str(p.relative_to(PACKAGE)))
def test_random_streams_come_from_seeded_rng(path):
    assert _seeding_calls(path) == []


def test_no_module_imports_scipy():
    """Only the tests use scipy, as the oracle of Qhull's vertex order."""
    found = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


def test_synthesis_loads_no_scipy():
    """`import fovlab.cli` and one synthesized frame of each family (scene,
    LiDAR, oracle) leave scipy out of sys.modules."""
    code = ("import sys, fovlab.cli\n"
            "from fovlab.scenes import (FAMILY_NAMES, SceneFamily, default_grid, default_lidar,\n"
            "                           generate_scene, ground_truth_fov, simulate_lidar)\n"
            "for name in FAMILY_NAMES:\n"
            "    scene, lidar = generate_scene(SceneFamily.preset(name), 0), default_lidar(name)\n"
            "    simulate_lidar(scene, lidar, 0)\n"
            "    ground_truth_fov(scene, lidar, default_grid(name, 64))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    path = f"{PACKAGE.parent}{os.pathsep}{os.environ.get('PYTHONPATH', '')}"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path}).stdout
    assert out.strip() == "[]"


def test_estimators_load_neither_numpy_ma_nor_scipy():
    """One synthesized frame through rayq, rayc and concave (its closure test,
    points_in_polygon, included) leaves numpy.ma and scipy out of sys.modules."""
    code = ("import sys\n"
            "from fovlab import classical\n"
            "from fovlab.experiments import make_estimator\n"
            "from fovlab.scenes import (SceneFamily, default_grid, default_lidar, generate_scene,\n"
            "                           ground_truth_fov, simulate_lidar)\n"
            "from fovlab.types import FilterSpec, PointCloud\n"
            "scene, lidar = generate_scene(SceneFamily.preset('indoor'), 0), default_lidar('indoor')\n"
            "cloud, grid = simulate_lidar(scene, lidar, 0), default_grid('indoor', 64)\n"
            "ground_truth_fov(scene, lidar, grid)\n"
            "calls = []\n"
            "inside = classical.points_in_polygon\n"
            "classical.points_in_polygon = lambda *a: calls.append(1) or inside(*a)\n"
            "filt = FilterSpec(max_range=lidar.max_range)\n"
            "thin = PointCloud(cloud.points[::20], cloud.pose)\n"
            "for name, frame in (('rayq', cloud), ('rayc', cloud), ('concave', thin)):\n"
            "    make_estimator(name, grid, filt)(frame, 0)\n"
            "assert calls\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'numpy.ma' or m.startswith(('numpy.ma.', 'scipy'))))")
    path = f"{PACKAGE.parent}{os.pathsep}{os.environ.get('PYTHONPATH', '')}"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path}).stdout
    assert out.strip() == "[]"


def _recorder_module():
    spec = importlib.util.spec_from_file_location("fovbench_recorder",
                                                  ROOT / "fovbench" / "recorder.py")
    recorder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recorder)
    return recorder


def test_benchmark_traced_functions_exist():
    """fovbench wraps fovlab functions by module attribute, so renaming or
    removing one breaks a traced benchmark run; install and undo its tracer."""
    recorder = _recorder_module()
    rec = recorder.Recorder()
    try:
        recorder.install(rec)
        patched = list(rec._patched)
    finally:
        rec.restore()
    assert len(patched) > 20
    for owner, attr, orig in patched:
        now = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert now is orig, f"{attr} not restored"


def test_traced_mcd_sees_every_layer():
    """A traced MC-dropout run on the benchmark's net sees each pass, each conv
    with its closed-form FLOP and im2col byte counts, and each layer primitive
    it runs. The stem convs run once per frame, every other layer once per
    pass. An up conv is called on its low-resolution input, whose counts the
    tracer takes, and no pass upsamples."""
    import numpy as np

    from fovlab.segnet import network
    from fovlab.segnet.inference import infer_mcd
    from fovlab.types import BevImage, GridSpec

    recorder = _recorder_module()
    T, res = 3, 32
    cfg = network.NetConfig(depth=4, base_channels=8, dropout_rate=0.1, resolution=res)
    net = network.unet_init(cfg, seed=1)
    image = BevImage(GridSpec(extent=8.0, resolution=res),
                     np.random.default_rng(3).integers(0, 6, (res, res)))
    rec = recorder.Recorder()
    recorder.install(rec)
    try:
        with rec.stage("mcd"):
            infer_mcd(net, image, T=T, seed=0)
    finally:
        rec.restore()
    assert rec.span_stats("network.forward_batch.infer")[0] == T
    flop = im2col = 0
    for name, out_ch, in_ch, k in network.conv_specs(cfg):
        calls = 1 if name in ("enc0.c1", "enc0.c2") else T
        assert rec.span_stats(f"layers.{name}.fwd")[0] == calls, name
        level = cfg.depth if name.startswith("bott") else int(name[3]) if k == 3 else 0
        cells = (res >> (level + name.endswith(".up"))) ** 2
        flop += calls * 2 * cells * k * k * in_ch * out_ch
        if k == 3:
            im2col += calls * cells * 9 * in_ch * 4
    assert rec.counts["layers.conv.flop"] == flop
    assert rec.counts["layers.im2col.bytes"] == im2col
    for fn in ("relu_forward", "dropout_forward", "maxpool2_forward", "sigmoid"):
        calls, ns = rec.span_stats(f"layers.{fn}")
        assert calls > 0 and ns > 0, fn
    assert rec.span_stats("layers.upsample2_forward")[0] == 0


def test_traced_training_sees_every_layer():
    """A traced training epoch on the benchmark's net names every conv's
    backward from the weight at the end of its cache, once per batch, and
    sees each backward primitive."""
    import numpy as np

    from fovlab.segnet import network, training
    from fovlab.types import BevImage, FovMask, GridSpec

    recorder = _recorder_module()
    res, batch, frames = 32, 2, 4
    spec = GridSpec(extent=8.0, resolution=res)
    rng = np.random.default_rng(3)
    pairs = [(BevImage(spec, rng.integers(0, 6, (res, res))),
              FovMask(spec, rng.uniform(size=(res, res)) > 0.5)) for _ in range(frames)]
    cfg = network.NetConfig(depth=4, base_channels=8, dropout_rate=0.1, resolution=res)
    net = network.unet_init(cfg, seed=1)
    rec = recorder.Recorder()
    recorder.install(rec)
    try:
        with rec.stage("train"):
            training.train(net, pairs, pairs[:1],
                           training.TrainConfig(max_epochs=1, batch_size=batch, seed=0))
    finally:
        rec.restore()
    assert rec.span_stats("network.backward_batch")[0] == frames // batch
    for name, *_ in network.conv_specs(cfg):
        assert rec.span_stats(f"layers.{name}.bwd")[0] == frames // batch, name
    assert not [name for name, _ in rec.spans if name.startswith("layers.?")]
    for fn in ("maxpool2_backward", "relu_backward", "upsample2_backward", "dropout_backward"):
        calls, ns = rec.span_stats(f"layers.{fn}")
        assert calls > 0 and ns > 0, fn


# Module-level functions and classes, and non-dunder methods, of src/fovlab
# that no code of the program names, each with the reason it is kept. Code
# added without a caller fails the test below; code that gets wired must leave
# this set.
UNREACHED: dict[str, str] = {}


def _references(node) -> set[str]:
    """Every name, attribute and string literal inside `node`."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            found.add(n.value)
    return found


def _pieces(node) -> list:
    """A module-level statement as (label, subtree) pieces. A function or class
    is labelled with its name; each non-dunder method of a class is a piece of
    its own, labelled ``Class.method``; any other statement is labelled None."""
    if isinstance(node, ast.FunctionDef):
        return [(node.name, node)]
    if not isinstance(node, ast.ClassDef):
        return [(None, node)]
    methods = [m for m in node.body if isinstance(m, ast.FunctionDef)
               and not (m.name.startswith("__") and m.name.endswith("__"))]
    rest = ast.ClassDef(name=node.name, bases=node.bases, keywords=node.keywords,
                        body=[m for m in node.body if m not in methods],
                        decorator_list=node.decorator_list)
    return [(node.name, rest)] + [(f"{node.name}.{m.name}", m) for m in methods]


def test_unreached_definitions_are_the_ledger():
    """A definition counts as reached when src/ (outside ``__init__`` files,
    ``__all__`` lists and its own body) or fovbench/ names it, by name,
    attribute or string literal. A non-dunder method is a definition of its
    own, ``Class.method``: its body reaches neither it nor its class."""
    defined, reached = [], set()
    for path in MODULES + sorted((ROOT / "fovbench").rglob("*.py")):
        in_package = PACKAGE in path.parents
        if in_package and path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if _is_all(node):
                continue
            for label, part in _pieces(node) if in_package else [(None, node)]:
                found = _references(part)
                if label:
                    defined.append(f"{_module_name(path).removeprefix('fovlab.')}.{label}")
                    found -= set(label.split("."))
                reached |= found
    unreached = {label for label in defined if label.rsplit(".", 1)[-1] not in reached}
    assert unreached == set(UNREACHED)
