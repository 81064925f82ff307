"""Checks on the library source itself."""

import ast
from collections import Counter
from fractions import Fraction
from pathlib import Path

import twistdual
from twistdual import dualgroup
from twistdual.dualgroup import lusztig_dual, twisted_dual
from twistdual.qform import CartanDatum, QForm
from twistdual.rootdata import standard

SOURCES = sorted(Path(twistdual.__file__).parent.glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"lattice.py", "rootdata.py", "characters.py"}


def test_no_assert_statements():
    # `python -O` strips assert statements, so a guard on a result must raise
    found = [f"{p.name}:{node.lineno}"
             for p in SOURCES
             for node in ast.walk(ast.parse(p.read_text(), filename=str(p)))
             if isinstance(node, ast.Assert)]
    assert found == []


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _names(tree):
    """Every identifier a syntax tree mentions: names, attributes and
    imported names, with their line numbers."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno


def test_trusted_matrix_stays_in_lattice():
    # `_trusted_matrix` stores rows without checking them: only lattice's
    # own integer arithmetic may build a matrix that way
    uses = {p.name: [line for name, line in _names(_parse(p)) if name == "_trusted_matrix"]
            for p in SOURCES}
    assert uses["lattice.py"]
    assert {name: lines for name, lines in uses.items()
            if lines and name != "lattice.py"} == {}


def test_witness_checks_read_no_root_table():
    # `isomorphic` and `quantum_dual_pair` decide a map on the simple pairs
    # (the proofs are in their docstrings), so neither they nor a helper of
    # their module that they call reads the full roots
    readers = {"root_pairs"}
    tree = _parse(Path(twistdual.__file__).parent / "dualgroup.py")
    bodies = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def reads(name, seen):
        seen.add(name)
        for attr, line in _names(bodies[name]):
            if attr in readers:
                yield f"{name}:{line}"
            elif attr in bodies and attr not in seen:
                yield from reads(attr, seen)

    assert {name: list(reads(name, set())) for name in ("isomorphic", "quantum_dual_pair")} \
        == {"isomorphic": [], "quantum_dual_pair": []}


def _function(path, qualname):
    """The syntax tree of a module-level function or a method, by its
    dotted name in the module at `path`."""
    node = _parse(path)
    for part in qualname.split("."):
        node = next(n for n in node.body
                    if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == part)
    return node


def test_computed_matrix_stays_off_the_entries():
    # `_computed_matrix` stores rows without checking them: only lattice,
    # qform, rootdata (a datum's frame) and dualgroup, on rows they computed
    # from checked matrices, may build a matrix that way, and no entry of
    # outside data calls it
    uses = {p.name: [line for name, line in _names(_parse(p)) if name == "_computed_matrix"]
            for p in SOURCES}
    assert uses["qform.py"] and uses["dualgroup.py"] and uses["rootdata.py"]
    assert {name for name, lines in uses.items() if lines} <= {
        "lattice.py", "qform.py", "rootdata.py", "dualgroup.py"}
    assert uses["cli.py"] == []
    root = Path(twistdual.__file__).parent
    entries = [("lattice.py", "IntMatrix.__init__"), ("lattice.py", "Sublattice.from_rows"),
               ("rootdata.py", "RootDatum.__init__"), ("rootdata.py", "RootDatum.from_dict"),
               ("rootdata.py", "RootDatum._vector"), ("qform.py", "QForm.__init__"),
               ("qform.py", "_as_gram"), ("qform.py", "decode_gram"),
               ("qform.py", "QForm.from_dict")]
    assert [f"{path}:{qualname}" for path, qualname in entries
            if "_computed_matrix" in dict(_names(_function(root / path, qualname)))] == []


def test_two_reductions_in_lattice():
    # every integer lattice question goes to the Hermite routine, and
    # Bareiss's fraction-free elimination answers only the rational ones
    calls = {}
    for node in _parse(Path(twistdual.__file__).parent / "lattice.py").body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        prefix = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
        for fn in members:
            if isinstance(fn, ast.FunctionDef):
                calls[prefix + fn.name] = {
                    call.func.id for call in ast.walk(fn)
                    if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)}
    assert {name for name, called in calls.items() if "_eliminate" in called} \
        == {"IntMatrix.det", "integral_inverse"}
    assert [name for name in ("smith_normal_form", "intersect", "IntMatrix.rank")
            if "_hermite_rows" not in calls[name]] == []
    assert [p.name for p in SOURCES if p.name != "lattice.py"
            and "_eliminate" in dict(_names(_parse(p)))] == []


def _strings(tree):
    """Every string constant in a syntax tree: the benchmark's tracer names
    what it patches in strings."""
    return (node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str))


def _mentions(tree):
    """Every identifier (`_names`) and every string constant in a syntax
    tree."""
    yield from (name for name, _ in _names(tree))
    yield from _strings(tree)


def _attribute_reads(tree):
    """Every attribute read (`x.dim`) and every string constant in a syntax
    tree: a method is read through one of these, and a local variable of
    the same name reads nothing."""
    yield from (node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    yield from _strings(tree)


def _reads(mentions=_mentions):
    """How often each name is mentioned in the library and the benchmark
    harness, leaving out the package's re-export imports; the harness is
    found beside this file, so a run against an installed copy of the
    library fails here instead of judging on partial reads."""
    bench = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))
    assert SOURCES and bench
    reads = Counter()
    for path in SOURCES + bench:
        tree = _parse(path)
        if path.name == "__init__.py":
            tree.body = [node for node in tree.body if not isinstance(node, ast.ImportFrom)]
        reads.update(mentions(tree))
    return reads


def _unread(definitions, reads, mentions=_mentions):
    """The dotted names of `definitions` (dotted name -> syntax tree) whose
    own name is mentioned nowhere outside its own definition."""
    return sorted(qualname for qualname, node in definitions.items()
                  if reads[node.name] <= sum(n == node.name for n in mentions(node)))


def _public_methods(cls):
    return {f"{cls.name}.{node.name}": node for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def test_every_root_datum_member_is_read():
    # each public method and property of RootDatum is read as an attribute
    # or named in a string in the library or the benchmark harness, outside
    # its own definition
    methods = _public_methods(_function(Path(twistdual.__file__).parent / "rootdata.py",
                                        "RootDatum"))
    assert methods
    assert _unread(methods, _reads(_attribute_reads), _attribute_reads) == []


# Exports that only tests read, kept until those tests are rewritten:
# `weyl_dim` is what the character tables' dimensions are checked by
DEFERRED = (
    "fiber_dim",
    "weyl_dim",
)


def test_every_export_is_read():
    # each name the package exports, and each public method of an exported
    # class (as an attribute or in a string), is read in the library or the
    # benchmark harness outside its own definition, or is read by an
    # acceptance criterion; the unread rest is exactly DEFERRED, so a new
    # unread name fails here, and so does a deferred one that gains a
    # reader or goes
    modules = {p.stem: _parse(p) for p in SOURCES}
    definitions = {}
    for node in modules["__init__"].body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            tops = {n.name: n for n in modules[node.module].body
                    if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
            for alias in node.names:
                top = tops[alias.name]
                definitions[alias.name] = top
                if isinstance(top, ast.ClassDef):
                    definitions.update(_public_methods(top))
    pinned = {name for name, _ in _names(_parse(Path(__file__).parent / "test_acceptance.py"))}
    methods = {q: node for q, node in definitions.items() if "." in q}
    tops = {q: node for q, node in definitions.items() if q not in methods}
    assert tops and methods
    unread = (_unread(tops, _reads())
              + _unread(methods, _reads(_attribute_reads), _attribute_reads))
    assert sorted(q for q in unread if q.rsplit(".", 1)[-1] not in pinned) == sorted(DEFERRED)


def test_every_memo_is_bounded():
    # a long-lived process meets unboundedly many inputs, so every
    # functools cache in the library names an int bound, and the per-datum
    # dual memo keeps at most DUAL_MEMO_SIZE duals however many forms one
    # datum is swept over
    caches = []
    for p in SOURCES:
        tree = _parse(p)
        assert "cache" not in dict(_names(tree)), p.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "lru_cache":
                bound = {kw.arg: kw.value for kw in node.keywords}.get("maxsize")
                caches.append((p.name, node.lineno, isinstance(bound, ast.Constant)
                               and type(bound.value) is int))
            elif isinstance(node, ast.FunctionDef):
                assert not [d for d in node.decorator_list
                            if getattr(d, "id", None) == "lru_cache"], (p.name, node.name)
    assert caches and [c for c in caches if not c[2]] == []
    rd = standard("SL2xT1")
    for n in range(1, 40):
        for gram in ([[Fraction(1, n), 0], [0, 0]], [[Fraction(2, n), 0], [0, Fraction(1, n)]]):
            twisted_dual(rd, QForm(rd, gram))
        lusztig_dual(CartanDatum.standard(rd), n)
    assert len(rd._assembled) == dualgroup.DUAL_MEMO_SIZE
