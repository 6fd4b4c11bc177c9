"""The public surface: every name a module lists in ``__all__`` exists, the
package re-exports only names its modules export, no module imports a name
it never reads, and every dataclass has a docstring."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import pkgutil
import re
from pathlib import Path

import pytest
import yaml

import kitwpa
import kitwpa.twoport
from kitwpa import config
from kitwpa.circuit import FishboneSpec, UnitCellSpec

MODULES = sorted(f"kitwpa.{m.name}"
                 for m in pkgutil.iter_modules(kitwpa.__path__))


def _star_names(module) -> list:
    """What ``from module import *`` binds: __all__, or the public names."""
    return getattr(module, "__all__",
                   [n for n in vars(module) if not n.startswith("_")])


@pytest.mark.parametrize("name", ["kitwpa", *MODULES])
def test_all_resolves_and_star_import_works(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
    namespace: dict = {}
    exec(f"from {name} import *", namespace)


def test_package_exports_only_listed_names():
    unlisted = []
    for attr, value in vars(kitwpa).items():
        home = getattr(value, "__module__", None)
        if attr.startswith("_") or home is None or home == "kitwpa":
            continue
        if attr not in _star_names(importlib.import_module(home)):
            unlisted.append(f"{home}.{attr}")
    assert not unlisted, f"kitwpa re-exports unexported names {unlisted}"


def _unread_imports(path) -> list:
    """The names a module's import statements bind and its code never
    reads, ``from __future__`` imports aside."""
    tree = ast.parse(path.read_text(), str(path))
    bound = [alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_every_import_is_read():
    # a name the benchmark's tracer rebinds in a module is imported there
    # to be rebound, whether or not the module reads it
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    rebound = {(module.__name__, attr)
               for module, attr, _, _ in tracing.PATCHES}
    unread = [f"{name}.{attr}" for name in MODULES
              for attr in _unread_imports(
                  Path(importlib.import_module(name).__file__))
              if (name, attr) not in rebound]
    assert not unread, f"imported and never read: {unread}"


def test_every_dataclass_says_what_its_fields_are():
    # a dataclass without a docstring gets its signature as __doc__
    bare = [f"{name}.{attr}" for name in MODULES
            for attr, value in vars(importlib.import_module(name)).items()
            if dataclasses.is_dataclass(value) and isinstance(value, type)
            and value.__module__ == name
            and (value.__doc__ or "").startswith(f"{value.__name__}(")]
    assert not bare, f"dataclasses without a docstring: {bare}"


def test_no_two_dataclasses_declare_the_same_fields():
    # two records with one set of fields are one concept held twice, and
    # code that copies one into the other field by field
    owners: dict = {}
    for name in MODULES:
        for attr, value in vars(importlib.import_module(name)).items():
            if (dataclasses.is_dataclass(value) and isinstance(value, type)
                    and value.__module__ == name):
                key = frozenset(f.name for f in dataclasses.fields(value))
                owners.setdefault(key, []).append(f"{name}.{attr}")
    twins = [sorted(names) for names in owners.values() if len(names) > 1]
    assert not twins, f"dataclasses with the same field names: {twins}"


# what a design spec's field may be: a number read under a config key, or
# one of the records the expanded network itself holds
SPEC_FIELD_TYPES = {"int", "float", "bool",
                    "SeriesInductor", "ShuntCapacitor", "UnitCellSpec"}


@pytest.mark.parametrize("preset", ["fishbone-paper", "leaf-paper"])
def test_design_specs_are_flat(preset, tmp_path):
    # a record that only groups some keys of a config section is unpacked
    # by every reader of the spec: the expanders, the sweep and the parser
    design = config.load_config(
        Path(config.__file__).parent / "presets" / f"{preset}.cfg").design
    nested = [f"{spec.__name__}.{f.name}: {f.type}"
              for spec in (type(design), UnitCellSpec)
              for f in dataclasses.fields(spec)
              if f.type not in SPEC_FIELD_TYPES]
    assert not nested, f"design spec fields that are not flat: {nested}"
    # every number is read under its key: a section that sets each key to
    # the spec's value loads the same spec
    cell = design.base_cell
    values = {**dataclasses.asdict(cell.inductor),
              **dataclasses.asdict(cell.capacitor),
              **{f.name: getattr(design, f.name)
                 for f in dataclasses.fields(design)
                 if f.type in ("int", "float", "bool")}}
    kind = "fishbone" if isinstance(design, FishboneSpec) else "leaf"
    path = tmp_path / "run.cfg"
    path.write_text(yaml.safe_dump({"design": {kind: {
        config._KEYS.get(name, name): v for name, v in values.items()}}}))
    assert config.load_config(path).design == design


def _parameters() -> list:
    """(module.name, parameter, annotation) of each parameter of every
    function and class constructor a module defines, and of each field of
    its dataclasses; annotations are strings, or inspect's empty marker."""
    found = []
    for name in MODULES:
        module = importlib.import_module(name)
        for attr, value in vars(module).items():
            if getattr(value, "__module__", None) != name:
                continue
            if dataclasses.is_dataclass(value) and isinstance(value, type):
                params = [(f.name, f.type) for f in dataclasses.fields(value)]
            else:
                init = (vars(value).get("__init__")
                        if isinstance(value, type) else value)
                if not inspect.isfunction(init):
                    continue
                params = [(p.name, p.annotation) for p in
                          inspect.signature(init).parameters.values()
                          if p.name != "self"]
            found += [(f"{name}.{attr}", p, a) for p, a in params]
    return found


def test_the_line_impedance_is_one_constant():
    # twoport.Z0 is the line and port impedance of every device; no
    # function, class or dataclass takes one, apart from the R a Touchstone
    # file names, which read_touchstone returns in its SParameterSet
    impedance = re.compile(r"^z(\d+|_ref)?$|ohm|impedance")
    takes = [f"{owner}({p})" for owner, p, _ in _parameters()
             if impedance.search(p)]
    assert takes == ["kitwpa.twoport.SParameterSet(reference_impedance)"]
    assert kitwpa.twoport.Z0 == 50.0
    assert kitwpa.twoport.RESONATOR_ENVIRONMENT_OHMS == kitwpa.twoport.Z0 / 2


def test_only_the_harmonic_scan_takes_integrator_settings():
    # the small-signal gain is a closed form: prepare_line, PumpedLine, the
    # gain pipeline, calibrate_istar and sweep take no IntegrationOptions.
    # integrate_gain keeps its options parameter because the benchmark's
    # gain check (bench/checks.py) passes one; it reads only the
    # include_third_harmonic flag, to refuse it.  A config still carries
    # the integrator section, which harmonics reads
    takes = sorted(f"{owner}({p})" for owner, p, annotation in _parameters()
                   if p == "options" or "IntegrationOptions" in str(annotation))
    assert takes == ["kitwpa.config.RunConfig(integrator)",
                     "kitwpa.fwm.integrate_gain(options)",
                     "kitwpa.fwm.third_harmonic_scan(options)"]


def test_the_oracle_reads_no_private_name_of_the_package():
    # tests/oracles.py is what the package's solvers are checked against; a
    # private helper it shared with them (a segment loop, an RHS) would let
    # a fault in that helper pass unseen.  Every name it imports from
    # kitwpa, and every attribute it reads off one, is public
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    roots, names = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "kitwpa":
                    names.append(alias.name)
                    roots.add(alias.asname or "kitwpa")
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[0] == "kitwpa"):
            names += [f"{node.module}.{alias.name}" for alias in node.names]
            roots |= {alias.asname or alias.name for alias in node.names}
    names += [ast.unparse(node) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and ast.unparse(node).split(".")[0] in roots]
    private = [name for name in names
               if any(part.startswith("_") for part in name.split("."))]
    assert names and not private, f"the oracle reads {private}"
