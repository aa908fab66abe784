"""The coefficient rings answer for themselves: outside fwdiff.modarith no
module tells F_p, F_q and Z/p^2 apart by class, nor an int value from a
tuple one, nor tests for a Galois ring GR(p^2, e), which only the tests'
covers build.  They ask the ring (degree, is_field,
residue_field, embeds_into, tag) instead.  The loci answer for themselves
too: no module tells a PointSpec from a PrimeSpec by class; they ask the
locus (kind, fiber, residue_p_rank, local_dim).  Coefficients change
rings along one map, SparsePoly.over, so outside modarith and mpoly no
module reduces or embeds coefficients by hand.  An FWPresentation keeps
only its ring, its labels and its columns, and one routine computes a
column through the w core.  In the oracle only the ring build divides
polynomials, and a finite ring keeps no n x n table.  The work bound
PRODUCT_BOUND has one copy, in modarith, beside _budget, the one counter
that spends against it.  No routine of the library is there only for the
tests, and a method of a class the package does not export counts as
used only where it is read as an attribute, not where a local variable
shares its name.  The library stays within its line budget."""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "fwdiff")
RING_NAMES = {"PrimeField", "GaloisField", "PrimeSquareRing", "GaloisRing",
              "tuple"}
LOCUS_NAMES = {"PointSpec", "PrimeSpec"}
# the one class test left: RingPresentation accepts the bases a ring file
# can name, through this tuple of classes
ALLOWED = {("fwcore.py", "RingPresentation.__post_init__", ("BASE_RINGS",))}


def _names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


class _Sites(ast.NodeVisitor):
    """A scan of one module that collects sites in found, each with the
    dotted scope (class and function names) it sits in."""

    def __init__(self, tree):
        self.scope, self.found = [], []
        self.visit(tree)

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped


class _ClassTests(_Sites):
    """Every isinstance whose class argument names one of the classes,
    directly or through a module-level alias: (scope, line, the names)."""

    def __init__(self, tree, classes):
        self.names = classes | {
            t.id for node in tree.body if isinstance(node, ast.Assign)
            and _names(node.value) & classes
            for t in node.targets if isinstance(t, ast.Name)}
        super().__init__(tree)

    def visit_Call(self, node):
        if (isinstance(node.func, ast.Name) and node.func.id == "isinstance"
                and len(node.args) == 2):
            named = _names(node.args[1]) & self.names
            if named:
                self.found.append((".".join(self.scope), node.lineno,
                                   tuple(sorted(named))))
        self.generic_visit(node)


def _class_tests(classes, exempt=()):
    out = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name not in exempt:
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            found = _ClassTests(tree, classes).found
            out += [(name,) + site for site in found]
    return out


def test_only_modarith_tells_the_coefficient_rings_apart():
    found = _class_tests(RING_NAMES, exempt=("modarith.py",))
    stray = [f"{mod}:{line} in {scope or '<module>'}: isinstance on "
             f"{', '.join(names)}" for mod, scope, line, names in found
             if (mod, scope, names) not in ALLOWED]
    assert not stray, "\n".join(stray)
    assert {(mod, scope, names) for mod, scope, _, names in found} == ALLOWED


COEFF_MAPS = {"map_coeffs", "reduce_mod_p", "embed"}
# the one use left: PointSpec.of embeds coordinates, not coefficients
COEFF_MAP_ALLOWED = {("localalg.py", "PointSpec.of", "embed")}


class _NameSites(_Sites):
    """Every use of one of the names, as a name or an attribute:
    (scope, line, the name); an import is not a use."""

    def __init__(self, tree, names):
        self.names = names
        super().__init__(tree)

    def visit_Name(self, node):
        if node.id in self.names:
            self.found.append((".".join(self.scope), node.lineno, node.id))

    def visit_Attribute(self, node):
        if node.attr in self.names:
            self.found.append((".".join(self.scope), node.lineno, node.attr))
        self.generic_visit(node)


def test_coefficients_change_rings_only_through_over():
    found = [(mod,) + site for mod, tree in _parsed(SRC)
             if mod not in ("modarith.py", "mpoly.py")
             for site in _NameSites(tree, COEFF_MAPS).found]
    stray = [f"{mod}:{line} in {scope or '<module>'}: {used}"
             for mod, scope, line, used in found
             if (mod, scope, used) not in COEFF_MAP_ALLOWED]
    assert not stray, "\n".join(stray)
    assert {(mod, scope, used) for mod, scope, _, used in found} == \
        COEFF_MAP_ALLOWED


def test_no_module_tells_the_loci_apart():
    found = _class_tests(LOCUS_NAMES)
    assert not found, "\n".join(
        f"{mod}:{line} in {scope or '<module>'}: isinstance on "
        f"{', '.join(names)}" for mod, scope, line, names in found)


SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def _parsed(folder):
    for name in sorted(os.listdir(folder)):
        if name.endswith(".py"):
            with open(os.path.join(folder, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read(), name)


def test_every_library_routine_has_a_library_caller_or_is_public():
    """No routine in the library that only the tests use: every function,
    method and class defined under src/fwdiff, dunders aside, is named
    (as a name or an attribute) in src/fwdiff or scripts/, or is public
    through fwdiff.__all__."""
    import fwdiff

    library = list(_parsed(SRC))
    named = {n.id if isinstance(n, ast.Name) else n.attr
             for _, tree in library + list(_parsed(SCRIPTS))
             for n in ast.walk(tree)
             if isinstance(n, (ast.Name, ast.Attribute))}
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unused = [f"{mod}:{n.lineno} {n.name}" for mod, tree in library
              for n in ast.walk(tree) if isinstance(n, defs)
              and not (n.name.startswith("__") and n.name.endswith("__"))
              and n.name not in named and n.name not in fwdiff.__all__]
    assert not unused, "\n".join(unused)


def test_every_method_of_an_internal_class_is_read_as_an_attribute():
    """A method or property of a class that fwdiff.__all__ does not
    export, dunders aside, is named as an attribute (x.name) in
    src/fwdiff or scripts/: a local variable of the same name does not
    call it."""
    import fwdiff

    library = list(_parsed(SRC))
    read = {n.attr for _, tree in library + list(_parsed(SCRIPTS))
            for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    unread = [f"{mod}:{f.lineno} {c.name}.{f.name}" for mod, tree in library
              for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
              and c.name not in fwdiff.__all__
              for f in c.body if isinstance(f, defs)
              and not (f.name.startswith("__") and f.name.endswith("__"))
              and f.name not in read]
    assert not unread, "\n".join(unread)


def test_the_product_bound_and_its_counter_live_in_modarith():
    """Outside modarith no module names PRODUCT_BOUND, by an import, a name
    or an attribute (a docstring is a string, not a name), so lowering
    modarith.PRODUCT_BOUND bounds every loop; only modarith defines
    _budget."""
    named, counters = [], []
    for mod, tree in _parsed(SRC):
        imported = [n.lineno for n in ast.walk(tree)
                    if isinstance(n, ast.alias) and n.name == "PRODUCT_BOUND"]
        used = [line for _, line, _ in
                _NameSites(tree, {"PRODUCT_BOUND"}).found]
        if mod != "modarith.py":
            named += [f"{mod}:{line}" for line in imported + used]
        counters += [mod for n in ast.walk(tree)
                     if isinstance(n, ast.FunctionDef) and n.name == "_budget"]
    assert not named, "\n".join(named)
    assert counters == ["modarith.py"]


def test_an_fw_presentation_keeps_its_ring_labels_and_columns():
    """FWPresentation holds its ring, its generator labels and its columns;
    the carrier and its basis are read from the ring.  One routine,
    column_of, computes a column: besides it only check_axioms, which
    builds the core once per block, names the w core."""
    library = dict(_parsed(SRC))
    record, = [n for n in ast.walk(library["fwcore.py"])
               if isinstance(n, ast.ClassDef) and n.name == "FWPresentation"]
    fields = [n.target.id for n in record.body if isinstance(n, ast.AnnAssign)]
    assert fields == ["ring", "generators", "columns"]
    callers = {(mod, scope) for mod, tree in library.items()
               for scope, _, _ in _NameSites(tree, {"_w_core"}).found}
    assert callers == {("fwcore.py", "column_of"),
                       ("fwcore.py", "check_axioms")}


def test_only_the_oracle_ring_build_divides():
    """In the oracle, Groebner bases, standard monomials and normal forms
    are made only by FiniteRing.from_presentation (its canon included):
    the presented side of cross_check reads its columns through that
    ring, with no carrier model of its own."""
    tree = dict(_parsed(SRC))["oracle.py"]
    found = _NameSites(tree, {"groebner", "standard_monomials",
                              "normal_form"}).found
    assert {scope for scope, _, _ in found} == {
        "FiniteRing.from_presentation",
        "FiniteRing.from_presentation.canon"}



def test_the_oracle_ring_keeps_no_n_by_n_table(monkeypatch):
    """FiniteRing multiplies by generators only: after a cross_check on
    an 81-element ring none of its numpy arrays has n^2 entries or more,
    and it defines no table fill, tables or table of powers."""
    import numpy as np

    from fwdiff import oracle
    from fwdiff.fwcore import present_fw
    from fwdiff.ringfile import parse_ring

    built, build = [], oracle.FiniteRing.from_presentation
    monkeypatch.setattr(oracle.FiniteRing, "from_presentation", lambda *a, **k:
                        built.append(build(*a, **k)) or built[-1])
    fw = present_fw(parse_ring("base: Zp2(3)\nvars: x\nrel: x^2\n"))
    assert oracle.cross_check(fw)["match"]
    (fr,) = built
    assert fr.size == 81
    big = [name for name, v in vars(fr).items()
           if isinstance(v, np.ndarray) and v.size >= fr.size ** 2]
    assert not big, big
    tables = {"_tables", "add", "mul", "pows", "frob", "steps"}
    assert not tables & (set(vars(fr)) | set(dir(oracle.FiniteRing)))


LINE_BUDGET = 3748  # ROADMAP's budget for the lines of src/fwdiff


def test_the_library_stays_within_its_line_budget():
    lines = 0
    for name in os.listdir(SRC):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    assert lines <= LINE_BUDGET
