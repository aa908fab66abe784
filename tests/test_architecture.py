"""The coefficient rings answer for themselves: outside fwdiff.modarith no
module tells F_p, F_q, Z/p^2 and GR(p^2, e) apart by class, nor an int
value from a tuple one.  They ask the ring (degree, is_field,
residue_field, embeds_into, tag) instead."""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "fwdiff")
RING_NAMES = {"PrimeField", "GaloisField", "PrimeSquareRing", "GaloisRing",
              "tuple"}
# the one class test left: RingPresentation accepts the bases a ring file
# can name, through this tuple of classes
ALLOWED = {("fwcore.py", "RingPresentation.__post_init__", ("BASE_RINGS",))}


def _names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


class _ClassTests(ast.NodeVisitor):
    """Every isinstance whose class argument names a ring class, directly
    or through a module-level alias: (scope, line, the names)."""

    def __init__(self, tree):
        self.ring_names = RING_NAMES | {
            t.id for node in tree.body if isinstance(node, ast.Assign)
            and _names(node.value) & RING_NAMES
            for t in node.targets if isinstance(t, ast.Name)}
        self.scope, self.found = [], []
        self.visit(tree)

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def visit_Call(self, node):
        if (isinstance(node.func, ast.Name) and node.func.id == "isinstance"
                and len(node.args) == 2):
            named = _names(node.args[1]) & self.ring_names
            if named:
                self.found.append((".".join(self.scope), node.lineno,
                                   tuple(sorted(named))))
        self.generic_visit(node)


def _class_tests():
    out = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name != "modarith.py":
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            out += [(name,) + site for site in _ClassTests(tree).found]
    return out


def test_only_modarith_tells_the_coefficient_rings_apart():
    found = _class_tests()
    stray = [f"{mod}:{line} in {scope or '<module>'}: isinstance on "
             f"{', '.join(names)}" for mod, scope, line, names in found
             if (mod, scope, names) not in ALLOWED]
    assert not stray, "\n".join(stray)
    assert {(mod, scope, names) for mod, scope, _, names in found} == ALLOWED
