"""Every optional parameter of the library has a caller that sets it.

An AST scan lists each parameter with a default of every function, method
and constructor defined in ``src/eidlab``, and each defaulted field of its
dataclasses, and each call in ``src/``, ``tests/`` and ``bench/`` by the
callee's name; a constructor or field is set by a call of its class or of
any subclass.  A parameter that no such call passes, by keyword or by
position, is an option nobody sets: make it a constant, or give it a
caller.  A call that unpacks ``*args`` may pass any parameter from its
position on, and one that unpacks ``**kwargs`` any parameter at all.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (function name, parameter) that stay settable without a caller
ALLOWED = {
    # the definiteness check takes a caller's tolerance by specification
    ("psd_check", "tol"),
}


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _is_dataclass(cls):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in cls.decorator_list)


def _init_fields(cls):
    """The fields of a dataclass that its constructor takes, as (name, has
    a default), in order."""
    fields = []
    for stmt in cls.body:
        if not isinstance(stmt, ast.AnnAssign) or not isinstance(stmt.target, ast.Name):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            if any(k.arg == "init" and getattr(k.value, "value", True) is False
                   for k in value.keywords):
                continue
        fields.append((stmt.target.id, value is not None))
    return fields


def _options():
    """(callee names, parameter, position or None, where) of every defaulted
    parameter; the position counts the positional parameters a call
    passes, so a method's self or cls is left out.  A constructor's callee
    names are its class and the subclasses defined in ``src/eidlab``."""
    trees = list(_trees("src/eidlab"))
    bases = {cls.name: {getattr(b, "id", getattr(b, "attr", None)) for b in cls.bases}
             for _, tree in trees for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)}

    def callers(name):
        return (name,) + tuple(c for sub, b in bases.items() if name in b for c in callers(sub))

    found = []
    for path, tree in trees:
        owner = {id(fn): node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                 for fn in node.body if isinstance(fn, ast.FunctionDef)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                continue
            where = f"{path.relative_to(ROOT)}:{node.lineno}"
            if isinstance(node, ast.ClassDef):
                if _is_dataclass(node):
                    found += [(callers(node.name), name, i, where)
                              for i, (name, default) in enumerate(_init_fields(node)) if default]
                continue
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            names = (callers(owner[id(node)].name) if node.name == "__init__"
                     else (node.name,))
            positional = node.args.posonlyargs + node.args.args
            bound = 1 if id(node) in owner and not static else 0
            first_default = len(positional) - len(node.args.defaults)
            found += [(names, a.arg, i - bound, where)
                      for i, a in enumerate(positional) if i >= first_default]
            found += [(names, a.arg, None, where)
                      for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults)
                      if d is not None]
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
    unset = [f"{where} {names[0]}({param}=)" for names, param, pos, where in _options()
             if (names[0], param) not in ALLOWED
             and not any(keywords is None or param in keywords
                         or (pos is not None and count > pos)
                         for name in names for keywords, count in calls.get(name, []))]
    assert not unset, "options no call sets:\n" + "\n".join(unset)


def test_the_allowlist_names_live_options():
    options = {(names[0], param) for names, param, _, _ in _options()}
    assert ALLOWED <= options
