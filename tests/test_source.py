"""Checks on the package source itself."""

import ast
import subprocess
import sys
from pathlib import Path

import sal

SOURCES = sorted(Path(sal.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # `python -O` strips assert statements, so no runtime check may rely on one
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found


def _declared(name: str, keywords: bool = False) -> list[str]:
    """file:line of every parameter and annotated class field called
    ``name`` in the package source, and with ``keywords`` of every keyword
    argument of a call."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                         args.vararg, args.kwarg) if a is not None]
            elif isinstance(node, ast.ClassDef):
                names = [stmt.target.id for stmt in node.body
                         if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
            elif keywords and isinstance(node, ast.Call):
                names = [kw.arg for kw in node.keywords]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for n in names if n == name]
    return found


def test_no_omega_setting():
    # hbar = omega = 1 throughout: a frequency omega is the scale identity
    # tau -> omega tau with energies times omega, never a parameter or field
    found = _declared("omega")
    assert SOURCES and not found, found


def test_no_su2_declaration():
    # whether a leaf steps by the su(2) closed form is worked out from its
    # generators (hamiltonians.Linear.su2), never declared: no parameter,
    # class field or keyword argument is named su2
    found = _declared("su2", keywords=True)
    assert SOURCES and not found, found


def test_d_s_h_is_never_differenced():
    # TimeDepHamiltonian.derivative evaluates only self.deriv, through
    # check_shape: it never calls self(...) or reads self.func, and no module
    # defines a step of s for a difference quotient
    path = Path(sal.__file__).parent / "hamiltonians.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    cls = next(c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               and c.name == "TimeDepHamiltonian")
    fn = next(f for f in cls.body if isinstance(f, ast.FunctionDef) and f.name == "derivative")
    calls = [ast.unparse(node.func) for node in ast.walk(fn) if isinstance(node, ast.Call)]
    reads = {node.attr for node in ast.walk(fn)
             if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "self"}
    assert sorted(c for c in calls if c != "ValueError") == ["check_shape", "self.deriv"], calls
    assert "func" not in reads, sorted(reads)
    steps = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.parse(path.read_text(), filename=str(path)).body
             if isinstance(node, (ast.Assign, ast.AnnAssign))
             for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
             if isinstance(target, ast.Name) and target.id.upper().endswith("STEP")]
    assert SOURCES and not steps, steps


def _calls_outside(names: tuple[str, ...], allowed: tuple[tuple[str, str], ...]) -> list:
    """(file name, call node) of every call in the package source to one of
    ``names``, outside the functions named by (file name, function name) in
    ``allowed``."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        inside = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and (path.name, fn.name) in allowed
            for node in ast.walk(fn)
        }
        found += [
            (path.name, node)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) in names
            and id(node) not in inside
        ]
    return found


def test_structure_nodes_come_from_composite():
    # hamiltonians.composite is the one constructor of a structure node: no
    # other call to either Hamiltonian class passes parts, by keyword or as
    # the fourth positional argument
    found = [
        f"{name}:{node.lineno}"
        for name, node in _calls_outside(("TimeDepHamiltonian", "SuperadiabaticHamiltonian"),
                                         (("hamiltonians.py", "composite"),))
        if len(node.args) >= 4 or any(kw.arg == "parts" for kw in node.keywords)
    ]
    assert SOURCES and not found, found


def test_shortcut_leaves_get_their_form_from_their_builder():
    # a shortcut leaf takes the closed-form step only through the form its
    # builder gives it (hamiltonians.terms): every SuperadiabaticHamiltonian
    # call passes form, by keyword or as the fifth positional argument,
    # except in composite, which builds nodes, and cd_generic, whose
    # correction has no coefficients
    calls = _calls_outside(("SuperadiabaticHamiltonian",),
                           (("hamiltonians.py", "composite"), ("counterdiabatic.py", "cd_generic")))
    found = [f"{name}:{node.lineno}" for name, node in calls
             if len(node.args) < 5 and not any(kw.arg == "form" for kw in node.keywords)]
    assert calls and not found, found


def test_only_runs_evolves_a_command_input():
    # cli._runs is the one place a command evolves: no other code of cli.py
    # calls evolve or qsl_check
    path = Path(sal.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    runs = next(fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == "_runs")
    calls = {
        id(node): node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("evolve", "qsl_check")
    }
    inside = {id(node) for node in ast.walk(runs)}
    found = [f"cli.py:{line}" for key, line in calls.items() if key not in inside]
    assert calls and not found, found


def test_evolve_compiles_once_and_builds_its_result_once():
    # dynamics.evolve sets each call up once and builds one result: the one
    # call each of _plan, _reader (E_tau's read) and EvolutionResult in
    # dynamics.py is inside it
    path = Path(sal.__file__).parent / "dynamics.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    evolve = next(fn for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and fn.name == "evolve")
    inside = {id(node) for node in ast.walk(evolve)}
    for name in ("_plan", "_reader", "EvolutionResult"):
        calls = [node for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name]
        assert len(calls) == 1 and id(calls[0]) in inside, (
            name, [f"dynamics.py:{node.lineno}" for node in calls])


def test_main_writes_every_table():
    # sal.cli.main is the one place a parsed command becomes CSV: the one
    # call of _write_csv is inside it, and no cmd_* wrapper is defined
    path = Path(sal.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    defs = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)]
    main = next(fn for fn in defs if fn.name == "main")
    writes = [node for node in ast.walk(tree)
              if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_write_csv"]
    assert len(writes) == 1 and any(node is writes[0] for node in ast.walk(main)), (
        [f"cli.py:{node.lineno}" for node in writes])
    assert not [f"cli.py:{fn.lineno}" for fn in defs if fn.name.startswith("cmd_")]


def test_commands_run_in_one_process():
    # every command, sweeps included, runs in the calling process: no module
    # imports a process or thread pool, calls os.fork or reads SAL_JOBS
    pools = ("concurrent", "multiprocessing", "threading")
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                bad = any(a.name.split(".")[0] in pools for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                bad = (node.module or "").split(".")[0] in pools
            else:
                bad = (isinstance(node, ast.Attribute) and node.attr == "fork"
                       or isinstance(node, ast.Constant) and node.value == "SAL_JOBS")
            if bad:
                found.append(f"{path.name}:{node.lineno}")
    assert SOURCES and not found, found


def test_the_cli_imports_neither_dataclasses_nor_json():
    # every command first imports sal.cli in a fresh interpreter: the record
    # classes have plain __init__s, and only --gate-file and --config import json
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import sal.cli; "
            "print(sorted({'dataclasses', 'json'} & sys.modules.keys()))")
    done = subprocess.run([sys.executable, "-I", "-c", code, str(Path(sal.__file__).parents[1])],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n", done.stdout


def test_teleport_and_cost_sweep_import_neither_numpy_ma_nor_numpy_polynomial():
    # evolve picks its sample steps without np.unique, which imports numpy.ma,
    # and the closed-form cost reads its Gauss-Legendre rule from a table
    code = ("import contextlib, io, sys; sys.path.insert(0, sys.argv[1]); import sal.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for argv in sys.argv[2:]:\n"
            "        assert sal.cli.main(argv.split() + ['--jobs', '1']) == 0\n"
            "print(sorted({'numpy.ma', 'numpy.polynomial'} & sys.modules.keys()))")
    commands = ["teleport --n 1 --tau 1 --states 1",
                "cost-sweep --protocol teleport --schedules linear,trig,exp --n-list 1 "
                "--tau-list 0.5"]
    done = subprocess.run([sys.executable, "-I", "-c", code, str(Path(sal.__file__).parents[1]),
                           *commands], capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n", done.stdout


def test_two_failure_types_for_two_exit_codes():
    # a ValueError is a bad argument (exit 3) and a ToleranceError a runtime
    # check that a run failed (exit 2): the package defines one exception
    # class, every raise names one of the two, and sal.cli.main catches
    # exactly those, with OSError and MemoryError as exit 3
    classes, raises, handlers = [], [], []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef) and any(
                    getattr(b, "id", getattr(b, "attr", "")).endswith(("Error", "Exception"))
                    for b in node.bases):
                classes.append(f"{path.name}:{node.name}")
            elif isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if getattr(exc, "id", None) not in ("ValueError", "ToleranceError"):
                    raises.append(f"{path.name}:{node.lineno}")
            elif (path.name == "cli.py" and isinstance(node, ast.FunctionDef)
                  and node.name == "main"):
                handlers = [
                    {t.id for t in (h.type.elts if isinstance(h.type, ast.Tuple) else [h.type])}
                    for h in ast.walk(node) if isinstance(h, ast.ExceptHandler)
                ]
    assert classes == ["linalg.py:ToleranceError"], classes
    assert SOURCES and not raises, raises
    assert handlers == [{"ValueError", "OSError", "MemoryError"}, {"ToleranceError"}], handlers


def test_no_eigenframe_is_continued_along_a_grid():
    # eigenvectors are taken at each point and moved by the correction's
    # formula, never aligned from one grid point to the next: src/sal calls
    # no svd, and Berry's pairwise formula has one copy, linalg._transport,
    # which cd_generic, qsl_ground_chi and adiabatic_time_estimate each call
    # and none of them bypasses with an eigh of its own
    svd = [f"{name}:{node.lineno}" for name, node in _calls_outside(("svd",), ())]
    assert SOURCES and not svd, svd
    readers = {"counterdiabatic.py": "cd_generic", "metrics.py": "qsl_ground_chi",
               "hamiltonians.py": "adiabatic_time_estimate"}
    for file, name in readers.items():
        path = Path(sal.__file__).parent / file
        tree = ast.parse(path.read_text(), filename=str(path))
        fn = next(fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == name)
        called = {getattr(node.func, "id", getattr(node.func, "attr", None))
                  for node in ast.walk(fn) if isinstance(node, ast.Call)}
        assert "_transport" in called and "eigh" not in called, (name, sorted(called))
