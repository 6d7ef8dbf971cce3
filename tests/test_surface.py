"""Every optional parameter of the library has a caller that sets it.

An AST scan lists each parameter with a default of every function and
method defined in ``src/eidlab`` (constructors aside), and each call in
``src/``, ``tests/`` and ``bench/`` by the callee's name.  A parameter that
no call by that name passes, by keyword or by position, is an option
nobody sets: make it a constant, or give it a caller.  A call that
unpacks ``*args`` may pass any parameter from its position on, and one that
unpacks ``**kwargs`` any parameter at all.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (function name, parameter) that stay settable without a caller
ALLOWED = {
    # the definiteness predicates take a caller's tolerance by specification
    ("psd_check", "tol"),
    ("is_psd", "tol"),
    ("is_nsd", "tol"),
    # its continuous-time step must match the empirical_gain(dt=) that the
    # caller measures the refined signal with
    ("power_iterate_disturbance", "dt"),
}


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _options():
    """(name, parameter, position or None, where) of every defaulted
    parameter; the position counts the positional parameters a call
    passes, so a method's self or cls is left out."""
    found = []
    for path, tree in _trees("src/eidlab"):
        methods = {id(fn) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   for fn in node.body if isinstance(fn, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or fn.name == "__init__":
                continue
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            positional = fn.args.posonlyargs + fn.args.args
            bound = 1 if id(fn) in methods and not static else 0
            first_default = len(positional) - len(fn.args.defaults)
            where = f"{path.relative_to(ROOT)}:{fn.lineno}"
            found += [(fn.name, a.arg, i - bound, where)
                      for i, a in enumerate(positional) if i >= first_default]
            found += [(fn.name, a.arg, None, where)
                      for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
    return found


def _calls():
    """Per callee name, the (keywords, positional count) of each call; an
    unpacked ``*args`` counts as every position, ``**kwargs`` as ``None``,
    every keyword."""
    calls = {}
    for _, tree in _trees("src", "tests", "bench"):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is not None:
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = {k.arg for k in node.keywords}
                calls.setdefault(name, []).append(
                    (None if None in keywords else keywords,
                     float("inf") if starred else len(node.args)))
    return calls


def test_every_option_has_a_caller():
    calls = _calls()
    unset = [f"{where} {name}({param}=)" for name, param, pos, where in _options()
             if (name, param) not in ALLOWED
             and not any(keywords is None or param in keywords
                         or (pos is not None and count > pos)
                         for keywords, count in calls.get(name, []))]
    assert not unset, "options no call sets:\n" + "\n".join(unset)


def test_the_allowlist_names_live_options():
    options = {(name, param) for name, param, _, _ in _options()}
    assert ALLOWED <= options
