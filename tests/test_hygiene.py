"""Source hygiene: no unused top-level imports, no dangling ``__all__`` entries,
random streams built only by the seeding helpers in ``types.py``, every
function the benchmark traces still there under its name, and a ledger of the
module-level functions and classes that nothing in the program reaches."""

import ast
import importlib
import importlib.util
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
    with its closed-form FLOP and im2col byte counts, and each layer primitive.
    The stem convs run once per frame, every other layer once per pass."""
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
        cells = (res >> level) ** 2
        flop += calls * 2 * cells * k * k * in_ch * out_ch
        if k == 3:
            im2col += calls * cells * 9 * in_ch * 4
    assert rec.counts["layers.conv.flop"] == flop
    assert rec.counts["layers.im2col.bytes"] == im2col
    for fn in ("relu_forward", "dropout_forward", "maxpool2_forward", "upsample2_forward",
               "sigmoid"):
        calls, ns = rec.span_stats(f"layers.{fn}")
        assert calls > 0 and ns > 0, fn


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


# Module-level functions and classes of src/fovlab that no code of the program
# names, each with the reason it is kept. Code added without a caller fails
# the test below; code that gets wired must leave this set.
UNREACHED = {
    "segnet.training.grad_check": "test oracle: backprop against finite differences",
    "segnet.training.tiny_check_net": "test fixture: the small net grad_check runs on",
}


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


def test_unreached_definitions_are_the_ledger():
    """A definition counts as reached when src/ (outside ``__init__`` files,
    ``__all__`` lists and its own body) or fovbench/ names it, by name,
    attribute or string literal."""
    defined, reached = [], set()
    for path in MODULES + sorted((ROOT / "fovbench").rglob("*.py")):
        in_package = PACKAGE in path.parents
        if in_package and path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if _is_all(node):
                continue
            found = _references(node)
            if in_package and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((_module_name(path).removeprefix("fovlab."), node.name))
                found.discard(node.name)
            reached |= found
    unreached = {f"{module}.{name}" for module, name in defined if name not in reached}
    assert unreached == set(UNREACHED)
