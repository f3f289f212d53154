"""Source-level guards on genmat's error handling and on the
independence of the test oracles."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "genmat"
ORACLES = Path(__file__).resolve().parent / "oracles.py"

# Catching any of these turns a library bug into an answer.
BLANKET = {"TypeError", "AttributeError", "IndexError", "Exception", "BaseException"}


def _names(node, aliases) -> set:
    """Exception names an except clause's type expression catches."""
    if node is None:
        return {"BaseException"}
    if isinstance(node, ast.Tuple):
        return set().union(*(_names(e, aliases) for e in node.elts))
    if isinstance(node, ast.Name) and node.id in aliases:
        return _names(aliases[node.id], aliases)
    return {ast.unparse(node)}


def test_no_except_clause_catches_bug_errors():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        # A module-level tuple of exceptions can hide behind one name.
        aliases = {
            node.targets[0].id: node.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Tuple)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler):
                caught = _names(node.type, aliases) & BLANKET
                if caught:
                    offenders.append(f"{path.name}:{node.lineno} catches {sorted(caught)}")
    assert not offenders, offenders


def test_oracles_take_nothing_from_the_groebner_engine_but_its_basis_type():
    # The oracles check the engine's division, bases and normal forms,
    # so they may read a GroebnerBasis but must not call into the engine.
    engine = ast.parse((SRC / "groebner.py").read_text())
    defined = {
        node.name
        for node in engine.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    offenders = []
    for node in ast.walk(ast.parse(ORACLES.read_text())):
        if isinstance(node, ast.Import):
            offenders += [a.name for a in node.names if a.name.startswith("genmat.groebner")]
        elif isinstance(node, ast.ImportFrom) and node.module == "genmat.groebner":
            offenders += [a.name for a in node.names if a.name != "GroebnerBasis"]
        elif isinstance(node, ast.ImportFrom) and node.module == "genmat":
            offenders += [
                a.name
                for a in node.names
                if a.name == "groebner" or a.name in defined - {"GroebnerBasis"}
            ]
    assert not offenders, offenders


def test_one_subalgebra_builder_calls_kernel_of_map():
    # Fiber, diagonal and multigraded fiber rings share one builder, so
    # a second route into kernel_of_map cannot grow back unnoticed.
    calls = [
        node.lineno
        for node in ast.walk(ast.parse((SRC / "algebra.py").read_text()))
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("kernel_of_map")
    ]
    assert len(calls) == 1, calls


def test_kernel_of_map_is_the_one_elimination():
    # Every presentation is a kernel, so a second elimination path beside
    # kernel_of_map cannot grow back unnoticed.
    owners = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owners += [
            (path.name, _owner(tree, node))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("elimination_order")
        ]
    assert owners == [("groebner.py", "kernel_of_map")], owners


def test_one_form_check_reads_the_grading():
    # element_degree is the one check of what a form is, so a second
    # grading check cannot grow back beside it unnoticed.
    tree = ast.parse((SRC / "algebra.py").read_text())
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("common_degree")
    ]
    owners = [
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if node in calls
    ]
    assert len(calls) == 1 and owners == ["element_degree"], owners
    for name in ("algebra.py", "instances.py", "instancefile.py"):
        uses = [
            node.lineno
            for node in ast.walk(ast.parse((SRC / name).read_text()))
            if (isinstance(node, ast.alias) and node.name.split(".")[-1] == "multidegree")
            or (isinstance(node, ast.Attribute) and node.attr == "multidegree")
        ]
        assert not uses, (name, uses)


def test_one_exchange_start_check():
    # Step, path and statistical runs share one start check, so a second
    # prologue cannot grow back beside it unnoticed.
    text = (SRC / "matroid.py").read_text()
    assert text.count('"starting set fails the basis oracle"') == 1


def test_oracles_share_no_solver_or_order_key_with_the_library():
    # fiber_image eliminates on its own, and leading terms come from
    # textbook_compare, so only order_key, which tests desc_key itself,
    # may read the library's order key.
    tree = ast.parse(ORACLES.read_text())
    linalg = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Import) and any("linalg" in a.name for a in node.names))
        or (isinstance(node, ast.ImportFrom) and "linalg" in (node.module or ""))
        or (isinstance(node, ast.ImportFrom) and any(a.name == "linalg" for a in node.names))
    ]
    assert not linalg, linalg
    readers = {
        fn.name
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and node.attr == "desc_key"
    }
    assert readers == {"order_key"}, readers


def test_one_polynomial_sum_and_one_scanner():
    # Sums, differences and negatives go through linear_combination, and
    # the parser is one loop over one pattern's tokens, so a second merge
    # loop or a tokenizer class cannot grow back unnoticed.
    tree = ast.parse((SRC / "polyring.py").read_text())
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    assert not [name for name in classes if "token" in name.lower()], sorted(classes)
    methods = {fn.name: fn for fn in classes["Polynomial"].body if isinstance(fn, ast.FunctionDef)}
    for name in ("__add__", "__sub__", "__rsub__", "__neg__"):
        nodes = list(ast.walk(methods[name]))
        assert any(
            isinstance(node, ast.Call) and ast.unparse(node.func) == "linear_combination"
            for node in nodes
        ), name
        loops = (ast.For, ast.While, ast.comprehension)
        assert not any(isinstance(node, loops) for node in nodes), name
    parser = next(fn for fn in tree.body if getattr(fn, "name", None) == "parse_polynomial")
    nested = [node.name for node in ast.walk(parser) if isinstance(node, ast.FunctionDef)]
    assert nested == ["parse_polynomial"], nested


def _owner(tree, node) -> str:
    """The name of the top-level definition that holds ``node``."""
    return next(
        top.name
        for top in tree.body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and node in ast.walk(top)
    )


def test_one_document_error_translation():
    # _at is the one place a library ValueError becomes a document error,
    # so a second translating try block cannot grow back unnoticed.  The
    # JSON decoder's refusal is translated where the text is decoded.
    tree = ast.parse((SRC / "instancefile.py").read_text())
    caught = {
        handler.name
        for handler in ast.walk(tree)
        if isinstance(handler, ast.ExceptHandler) and handler.name
    }
    translations = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Raise)
            and isinstance(node.exc, ast.Call)
            and ast.unparse(node.exc.func) == "InstanceFileError"
        ):
            continue
        # A message built from a caught exception, or chained to one.
        read = {n.id for arg in node.exc.args for n in ast.walk(arg) if isinstance(n, ast.Name)}
        if read & caught or isinstance(node.cause, ast.Name):
            translations.append(_owner(tree, node))
    assert sorted(translations) == ["_at", "load_document"], translations
    passes = [
        handler.lineno
        for handler in ast.walk(tree)
        if isinstance(handler, ast.ExceptHandler)
        and "InstanceFileError" in ast.unparse(handler.type)
    ]
    assert not passes, passes


def test_one_report_writer():
    # main builds the one report and reads the clock, and only cli.py
    # knows exit codes, so a second report writer or exit table cannot
    # grow back unnoticed.
    tree = ast.parse((SRC / "cli.py").read_text())
    reports = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Dict)
        and any(isinstance(k, ast.Constant) and k.value == "schema" for k in node.keys)
    ]
    clocks = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("perf_counter")
    ]
    owners = [_owner(tree, node) for node in reports + clocks]
    assert len(reports) == 1 and owners == ["main"] * len(owners), owners
    statuses = {"true", "false", "inconclusive"}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "cli.py":
            continue
        exits = [
            node.lineno
            for node in ast.walk(ast.parse(path.read_text()))
            if (isinstance(node, ast.Name) and node.id.lower().startswith("exit"))
            or (isinstance(node, ast.Attribute) and node.attr.lower().startswith("exit"))
            or (isinstance(node, ast.FunctionDef) and node.name.lower().startswith("exit"))
            or (
                isinstance(node, ast.Dict)
                and statuses & {getattr(k, "value", None) for k in node.keys}
            )
        ]
        assert not exits, (path.name, exits)


def test_one_ideal_tuple_rule():
    # _ideal_tuple is the one check that ideals share an algebra,
    # ReductionVerdict.decided the one inconclusive raise, and
    # _of_products the one builder that skips validation, so none of
    # them can grow a second copy unnoticed.
    refusals, raises, unvalidated = 0, [], []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        refusals += text.count("different algebras")
        tree = ast.parse(text)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            call = ast.unparse(node)
            if ast.unparse(node.func) == "InconclusiveError":
                raises.append((path.name, _owner(tree, node)))
            elif call == "object.__new__(EquigeneratedIdeal)":
                unvalidated.append((path.name, _owner(tree, node)))
    assert refusals == 1, refusals
    assert raises == [("algebra.py", "ReductionVerdict")], raises
    assert unvalidated == [("algebra.py", "_of_products")], unvalidated


def test_one_coordinate_solver():
    # linalg.span_solver answers every coordinate and degree-delta
    # membership question, so outside linalg only the streamed product
    # span behind the power certificate and the Groebner engine's
    # linear generators may echelonize, and a second solver cannot grow
    # back unnoticed.
    solves, eliminations = [], []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "linalg.py":
            continue
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = ast.unparse(node.func).split(".")[-1]
            if name == "solve_coords":
                solves.append((path.name, node.lineno))
            elif name in ("row_echelon", "residue"):
                eliminations.append((path.name, _owner(tree, node), name))
    assert not solves, solves
    assert sorted(eliminations) == [
        ("algebra.py", "_first_outside", "residue"),
        ("algebra.py", "_first_outside", "row_echelon"),
        ("groebner.py", "_settle", "row_echelon"),
    ], eliminations


def test_only_linalg_knows_the_packed_row_layout():
    # Other modules build and read packed rows through linalg's unpack,
    # unit_rows and row_sum, so neither a slot width nor a codec, nor
    # pack with its slot layout, can leak out of linalg unnoticed.
    layout = {"slot_bits", "_codec", "pack"}
    named = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and ast.unparse(node.value).endswith("linalg")
                and node.attr in layout
            ) or (
                isinstance(node, ast.ImportFrom)
                and (node.module or "").endswith("linalg")
                and layout & {a.name for a in node.names}
            ):
                named.append((path.name, node.lineno))
    assert not named, named
    # No shift and no bit count: algebra never lays out a slot itself.
    widths = [
        node.lineno
        for node in ast.walk(ast.parse((SRC / "algebra.py").read_text()))
        if (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.LShift, ast.RShift)))
        or (isinstance(node, ast.Name) and "bits" in node.id)
        or (isinstance(node, ast.arg) and "bits" in node.arg)
    ]
    assert not widths, widths


def test_containment_is_told_its_piece():
    # Every caller knows the piece its forms lie in, so the piece is a
    # required argument: a default would bring back a path that reads
    # the degree off a form and vets the others against it.
    tree = ast.parse((SRC / "algebra.py").read_text())
    fns = {
        fn.name: fn
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and fn.name in ("_first_outside", "_first_outside_ideal")
    }
    for name, piece in (("_first_outside", "target"), ("_first_outside_ideal", "d")):
        args = fns[name].args
        positional = [a.arg for a in args.posonlyargs + args.args]
        assert piece in positional, (name, positional)
        assert positional.index(piece) < len(positional) - len(args.defaults), name
        reads = [
            node.lineno
            for node in ast.walk(fns[name])
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("element_degree")
        ]
        assert not reads, (name, reads)
    unsure = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "unsure")
        or (isinstance(node, ast.arg) and node.arg == "unsure")
    ]
    assert not unsure, unsure
