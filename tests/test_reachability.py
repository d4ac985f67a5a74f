"""Every src/ definition is reached from cli.main, or is listed here.

The library is what the CLI runs: a function, class, method or
module-level value that no path from ``trigbethe.cli.main`` reaches
belongs next to the tests that call it, unless an open ROADMAP item is
about to give it a caller.  The scan reads the source only.  A name
resolves through the module's imports; a name in a type hint reaches
type aliases only.  ``recv.attr`` resolves to the method of the
receiver's class when its type is known (an annotation, a constructor
or a call whose return is annotated, ``self``, ``super()``, a loop over
an annotated sequence), and otherwise to every method of that name.
Reaching a class reaches its bases and its dunder methods.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "trigbethe"

# unreachable on purpose: definition -> the ROADMAP item that decides it
ALLOWED = {
    # item 1: perfbench/tracer.py wraps these names
    "linalg.mat_inverse": "item 1",
    "linalg.nullspace": "item 1",
    "linalg._unit_like": "item 1",
    "field.CyclotomicField.element": "item 1",
    "lattice.int_rank": "item 1",
    # item 1 too: the tracer wraps the normal-form product, which check
    # hecke no longer forms (it reads [x_k, s_b] off the exchange
    # formula); the tests take it as their oracle, and item 9 needs it to
    # test whether the images of the BMO family commute
    "hecke.HeckeAlgebra.multiply": "item 1",
    "hecke.HeckeAlgebra.move_across_word": "item 1",
    "hecke.HeckeAlgebra.commutator": "item 1",
    # item 9: the degree-one quantum side is their caller, or they move
    "hecke.HeckeAlgebra.holonomy_image": "item 9",
    "hecke.HeckeAlgebra.bmo": "item 9",
    "hecke.HeckeAlgebra.family": "item 9",
    "hecke.HeckeAlgebra.x": "item 9",
    "hecke.HeckeAlgebra.sub": "item 9",
    "hecke.HeckeAlgebra.scale": "item 9",
    "hecke.q_power": "item 9",
}

_SEQUENCES = {"list", "tuple", "Sequence", "Iterable", "Collection", "set",
              "frozenset"}


class Package:
    """The definitions of every module, and the types the scan can read."""

    def __init__(self, root: Path):
        modules = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
                   for p in sorted(root.glob("*.py"))}
        self.defs: dict[str, ast.AST] = {}      # key -> def or class node
        self.values: dict[str, ast.AST] = {}    # key -> module-level value
        self.owner: dict[str, str] = {}         # method key -> class key
        self.names: dict[str, dict[str, tuple]] = {}
        self.methods: dict[str, list[str]] = {}  # method name -> keys
        for mod, tree in modules.items():
            names = self.names[mod] = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.level == 1:
                    for alias in node.names:
                        target = (("mod", alias.name) if node.module is None
                                  else ("ref", f"{node.module}.{alias.name}"))
                        names[alias.asname or alias.name] = target
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    key = f"{mod}.{node.name}"
                    self.defs[key] = node
                    names[node.name] = ("ref", key)
                    for item in getattr(node, "body", []) \
                            if isinstance(node, ast.ClassDef) else []:
                        if isinstance(item, ast.FunctionDef):
                            mkey = f"{key}.{item.name}"
                            self.defs[mkey] = item
                            self.owner[mkey] = key
                            self.methods.setdefault(item.name, []).append(mkey)
                elif isinstance(node, (ast.Assign, ast.AnnAssign)) and \
                        node.value is not None:
                    targets = node.targets if isinstance(node, ast.Assign) \
                        else [node.target]
                    for t in targets:
                        if isinstance(t, ast.Name):
                            self.values[f"{mod}.{t.id}"] = node.value
                            names[t.id] = ("ref", f"{mod}.{t.id}")
        self._attr_types: dict[str, dict[str, tuple | None]] = {}

    # ------------------------------------------------------------------
    # names and types

    def resolve(self, mod: str, name: str) -> str | None:
        """The definition key a module-level name stands for."""
        target = self.names[mod].get(name)
        while target is not None and target[0] == "ref":
            key = target[1]
            if key in self.defs or key in self.values:
                return key
            src, _, attr = key.rpartition(".")
            target = self.names.get(src, {}).get(attr)
        return None

    def module_of(self, mod: str, name: str) -> str | None:
        target = self.names[mod].get(name)
        return target[1] if target and target[0] == "mod" else None

    def annotation(self, mod: str, node) -> tuple | None:
        """('cls', key), ('seq', type) or ('tup', types) of an annotation."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return self.annotation(mod, ast.parse(node.value, mode="eval").body)
        if isinstance(node, ast.Name):
            key = self.resolve(mod, node.id)
            return ("cls", key) if isinstance(self.defs.get(key),
                                              ast.ClassDef) else None
        if isinstance(node, ast.BinOp):     # X | None
            return self.annotation(mod, node.left) or \
                self.annotation(mod, node.right)
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
            args = node.slice.elts if isinstance(node.slice, ast.Tuple) \
                else [node.slice]
            if node.value.id == "tuple" and not (
                    len(args) == 2 and isinstance(args[1], ast.Constant)):
                return ("tup", tuple(self.annotation(mod, a) for a in args))
            if node.value.id in _SEQUENCES:
                inner = self.annotation(mod, args[0])
                return ("seq", inner) if inner else None
        return None

    def bases(self, cls: str) -> list[str]:
        mod = cls.split(".")[0]
        return [key for b in self.defs[cls].bases if isinstance(b, ast.Name)
                and isinstance(self.defs.get(key := self.resolve(mod, b.id)),
                               ast.ClassDef)]

    def lookup(self, cls: str, attr: str) -> str | None:
        """The method attr of class cls or of its first base defining it."""
        key = f"{cls}.{attr}"
        if key in self.defs:
            return key
        return next(filter(None, (self.lookup(b, attr)
                                  for b in self.bases(cls))), None)

    def attr_types(self, cls: str) -> dict[str, tuple | None]:
        """Instance attribute types: class-level annotations and what the
        methods assign to self.attr, None where they disagree."""
        if cls in self._attr_types:
            return self._attr_types[cls]
        out = self._attr_types[cls] = {}
        mod = cls.split(".")[0]
        for base in self.bases(cls):
            out.update(self.attr_types(base))
        for item in self.defs[cls].body:
            if isinstance(item, ast.AnnAssign) and \
                    isinstance(item.target, ast.Name):
                out[item.target.id] = self.annotation(mod, item.annotation)
        for item in self.defs[cls].body:
            if not isinstance(item, ast.FunctionDef):
                continue
            env = Scope(self, f"{cls}.{item.name}")
            for node in ast.walk(item):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        for t, seen in _pairs(target, env.type_of(node.value)):
                            if isinstance(t, ast.Attribute) and \
                                    isinstance(t.value, ast.Name) and \
                                    t.value.id == "self" and \
                                    out.setdefault(t.attr, seen) != seen:
                                out[t.attr] = None
        return out


def _pairs(target, t):
    """(name or attribute target, type) of an assignment target, a tuple
    target taking its parts from a tuple type."""
    if not isinstance(target, ast.Tuple):
        return [(target, t)]
    parts = t[1] if t and t[0] == "tup" and len(t[1]) == len(target.elts) \
        else [None] * len(target.elts)
    return [pair for sub, part in zip(target.elts, parts)
            for pair in _pairs(sub, part)]


class Scope:
    """The local variable types of one function or method."""

    def __init__(self, pkg: Package, key: str):
        self.pkg = pkg
        self.mod = key.split(".")[0]
        self.cls = pkg.owner.get(key)
        node = pkg.defs[key]
        self.types: dict[str, tuple | None] = {}
        args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        for i, a in enumerate(args):
            if i == 0 and self.cls and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in node.decorator_list):
                is_cls = any(isinstance(d, ast.Name) and d.id == "classmethod"
                             for d in node.decorator_list)
                self.types[a.arg] = ("type" if is_cls else "cls", self.cls)
            elif a.annotation is not None:
                self.types[a.arg] = pkg.annotation(self.mod, a.annotation)
        self.local = set(self.types) | {a.arg for a in (
            node.args.vararg, node.args.kwarg) if a}
        bindings = []
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign):
                bindings += [(t, sub.value, False) for t in sub.targets]
            elif isinstance(sub, ast.AnnAssign):
                self.types[getattr(sub.target, "id", "")] = \
                    pkg.annotation(self.mod, sub.annotation)
            elif isinstance(sub, ast.NamedExpr):
                bindings.append((sub.target, sub.value, False))
            elif isinstance(sub, (ast.For, ast.comprehension)):
                bindings.append((sub.target, sub.iter, True))
            elif isinstance(sub, (ast.FunctionDef, ast.Lambda)) and sub is not node:
                a = sub.args
                self.local |= {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}
                if isinstance(sub, ast.FunctionDef):
                    self.local.add(sub.name)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                self.local.add(sub.id)
        fixed = dict(self.types)
        for _ in range(3):     # a binding may read one made later in the body
            seen: dict[str, set] = {}
            for target, value, iterated in bindings:
                t = self.type_of(value)
                if iterated:
                    t = t[1] if t and t[0] == "seq" else None
                for name, part in _pairs(target, t):
                    if isinstance(name, ast.Name):
                        seen.setdefault(name.id, set()).add(part)
            self.types = {name: ts.pop() if len(ts) == 1 else None
                          for name, ts in seen.items()}
            for name, t in fixed.items():
                if self.types.setdefault(name, t) != t:
                    self.types[name] = None

    def type_of(self, node) -> tuple | None:
        """('cls', key), ('type', key), ('mod', name), ('seq', t),
        ('tup', ts), ('super', key) or None for an expression."""
        pkg = self.pkg
        if isinstance(node, ast.Name):
            if node.id in self.local:
                return self.types.get(node.id)
            mod = pkg.module_of(self.mod, node.id)
            if mod:
                return ("mod", mod)
            key = pkg.resolve(self.mod, node.id)
            return ("type", key) if isinstance(pkg.defs.get(key),
                                               ast.ClassDef) else None
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id == "super":
                return ("super", self.cls) if self.cls else None
            f = self.type_of(node.func)
            if f and f[0] == "type":
                return ("cls", f[1])
            key = self.callee(node.func)
            if key and isinstance(pkg.defs[key], ast.FunctionDef):
                ret = pkg.defs[key].returns
                if ret is not None:
                    return pkg.annotation(key.split(".")[0], ret)
            return None
        if isinstance(node, ast.Attribute):
            recv = self.type_of(node.value)
            if recv and recv[0] == "mod":
                key = f"{recv[1]}.{node.attr}"
                return ("type", key) if isinstance(pkg.defs.get(key),
                                                   ast.ClassDef) else None
            if recv and recv[0] == "cls":
                method = pkg.lookup(recv[1], node.attr)
                if method is None:
                    return pkg.attr_types(recv[1]).get(node.attr)
                if any(isinstance(d, ast.Name) and d.id == "property"
                       for d in pkg.defs[method].decorator_list):
                    return pkg.annotation(method.split(".")[0],
                                          pkg.defs[method].returns)
            return None
        if isinstance(node, ast.Subscript):
            t = self.type_of(node.value)
            return t[1] if t and t[0] == "seq" else None
        if isinstance(node, ast.Tuple):
            return ("tup", tuple(map(self.type_of, node.elts)))
        if isinstance(node, (ast.List, ast.ListComp)):
            elts = node.elts if isinstance(node, ast.List) else [node.elt]
            inner = {self.type_of(e) for e in elts}
            return ("seq", inner.pop()) if len(inner) == 1 and None not in inner \
                else None
        return None

    def callee(self, func) -> str | None:
        """The one definition a call's function expression names, if any."""
        if isinstance(func, ast.Name) and func.id not in self.local:
            return self.pkg.resolve(self.mod, func.id)
        if isinstance(func, ast.Attribute):
            recv = self.type_of(func.value)
            if recv and recv[0] == "mod":
                return self.pkg.resolve(recv[1], func.attr) \
                    if func.attr in self.pkg.names[recv[1]] else None
            if recv and recv[0] in ("cls", "type"):
                return self.pkg.lookup(recv[1], func.attr)
        return None


def reachable(pkg: Package, root: str, by_name: bool = True) -> set[str]:
    """The definitions reached from root; an attribute of a receiver of
    unknown type reaches every method of that name, or none when by_name
    is false."""
    reached = {root}
    todo = [root]

    def reach(key):
        if key and key not in reached:
            reached.add(key)
            todo.append(key)

    def attribute(scope, recv_node, attr):
        recv = scope.type_of(recv_node)
        if recv is None:
            for key in pkg.methods.get(attr, []) if by_name else []:
                reach(key)
        elif recv[0] == "mod":
            reach(pkg.resolve(recv[1], attr) if attr in pkg.names[recv[1]]
                  else None)
        elif recv[0] in ("cls", "type"):
            reach(pkg.lookup(recv[1], attr))
        elif recv[0] == "super":
            for base in pkg.bases(recv[1]):
                reach(pkg.lookup(base, attr))

    def walk(scope, nodes, mod):
        for top in nodes:
            hints = {id(sub) for node in ast.walk(top)
                     for hint in _annotations(node) for sub in ast.walk(hint)}
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    key = None if scope is not None and node.id in scope.local \
                        else pkg.resolve(mod, node.id)
                    # a type hint runs nothing: it reaches type aliases only
                    if id(node) not in hints or key in pkg.values:
                        reach(key)
                elif isinstance(node, ast.Attribute) and scope is not None:
                    attribute(scope, node.value, node.attr)
                elif isinstance(node, ast.Call) and scope is not None and \
                        isinstance(node.func, ast.Name) and \
                        node.func.id in ("getattr", "hasattr") and \
                        len(node.args) >= 2 and \
                        isinstance(node.args[1], ast.Constant):
                    attribute(scope, node.args[0], node.args[1].value)

    while todo:
        key = todo.pop()
        mod = key.split(".")[0]
        if key in pkg.values:
            walk(None, [pkg.values[key]], mod)
            continue
        node = pkg.defs[key]
        if isinstance(node, ast.ClassDef):
            walk(None, node.bases + node.decorator_list + [
                item for item in node.body
                if not isinstance(item, ast.FunctionDef)], mod)
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and \
                        item.name.startswith("__") and item.name.endswith("__"):
                    reach(f"{key}.{item.name}")
            continue
        if key in pkg.owner:
            reach(pkg.owner[key])
        walk(Scope(pkg, key), [node], mod)
    return reached


def _annotations(node) -> list:
    """The type hints a node carries itself."""
    if isinstance(node, (ast.AnnAssign, ast.arg)):
        return [node.annotation] if node.annotation else []
    if isinstance(node, ast.FunctionDef):
        return [node.returns] if node.returns else []
    return []


def unreachable(root_dir: Path = PACKAGE) -> tuple[list[str], list[str]]:
    """The definitions and module-level values cli.main does not reach
    (the package's own __all__ and __version__ aside), and those it
    reaches only through a method name read on a receiver of unknown
    type."""
    pkg = Package(root_dir)
    reached = reachable(pkg, "cli.main")
    typed = reachable(pkg, "cli.main", by_name=False)
    keys = {*pkg.defs, *(k for k in pkg.values if not k.startswith("__init__."))}
    return sorted(keys - reached), sorted(reached - typed)


def test_every_unreached_definition_is_allowed():
    missed, _ = unreachable()
    assert sorted(missed) == sorted(ALLOWED)


def test_allowed_entries_name_an_open_roadmap_item():
    roadmap = (PACKAGE.parents[1] / "ROADMAP.md").read_text(encoding="utf-8")
    for key, item in ALLOWED.items():
        assert item in ("item 1", "item 7", "item 9"), key
        number = item.split()[1]
        assert f"\n{number}. **" in roadmap, (key, item)


def test_scan_resolves_colliding_method_names_by_class(tmp_path):
    # the collisions of the package in small: a data attribute named like
    # another class's method (RootSystem.family, HeckeAlgebra.family), and
    # two classes with one method name (TrigSource.bethe,
    # HolonomySpace.bethe), each read through a receiver of known type
    (tmp_path / "cli.py").write_text(
        "from . import lib\n"
        "from .lib import System, helper\n"
        "def main():\n"
        "    src = lib.Source()\n"
        "    src.bethe()\n"
        "    label = make().family\n"
        "    x = helper()\n"
        "    return x.gaudin()\n"
        "def make() -> 'System':\n"
        "    return System('A')\n", encoding="utf-8")
    # a name in a type hint reaches an alias (Alias) but runs no class
    # (Hinted), and a constant no code reads (TABLE) is unreached
    (tmp_path / "lib.py").write_text(
        "Alias = list\n"
        "TABLE = {1: 2}\n"
        "class Hinted:\n"
        "    pass\n"
        "class System:\n"
        "    def __init__(self, family):\n"
        "        self.family = family\n"
        "class Algebra:\n"
        "    def family(self):\n"
        "        return []\n"
        "class Space:\n"
        "    def bethe(self):\n"
        "        return 1\n"
        "    def gaudin(self):\n"
        "        return 2\n"
        "class Source(Space):\n"
        "    def bethe(self):\n"
        "        return self.step()\n"
        "    def step(self) -> Hinted:\n"
        "        return 3\n"
        "class Target:\n"
        "    def gaudin(self):\n"
        "        return 4\n"
        "def helper() -> Alias:\n"
        "    return Target()\n"
        "def unused():\n"
        "    return 5\n", encoding="utf-8")
    missed, by_name = unreachable(tmp_path)
    assert missed == ["lib.Algebra", "lib.Algebra.family", "lib.Hinted",
                      "lib.Space.bethe", "lib.TABLE", "lib.unused"]
    # helper() is hinted with an alias, not a class: x.gaudin reaches
    # both methods of that name, by name only
    assert by_name == ["lib.Space.gaudin", "lib.Target.gaudin"]


if __name__ == "__main__":
    missed, by_name = unreachable()
    for key in sorted(missed):
        print("unreached", key, ALLOWED.get(key, ""))
    for key in sorted(by_name):
        print("by name", key)
