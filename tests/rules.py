"""The package's design rules, checked on its source by one walker. A new
rule is one entry of ``RULES``: a hit test, the allowed scopes, why, its
form rows and a fault.

A scope is ``<module>.<Class>.<function>.<lambda>``, the bare module name
at module level; a definition is in the scope around it, its decorators,
defaults and body in its own. A hit test returns the name it hit, or None,
and a hit is allowed when ``<scope>:<name>`` matches an ``allowed`` pattern
(``fnmatch``). A form row ``(source, module, flagged)`` gives the scopes,
or the lines, of the hits flagged in ``source`` read as ``module``; the
fault ``(module, source)``, appended to that module, must be flagged."""

import ast
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "patternqa"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
SCOPES = (*FUNCTIONS, ast.ClassDef)


class Site(NamedTuple):
    scope: str
    line: int
    allowed: bool


class Rule(NamedTuple):
    name: str
    hit: Callable  # (node, ancestors) -> the name hit, or None
    allowed: tuple[str, ...]
    why: str
    rows: tuple
    fault: tuple[str, str]


def walk(source: str, module: str):
    """``(node, scope, ancestors)`` for every node of ``source`` in source
    order. ``ancestors`` runs from the module to the node's parent; it is
    one list, changed as the walk goes on, so read it before the next node."""
    ancestors = []

    def visit(node, scope: str):
        yield node, scope, ancestors
        if isinstance(node, SCOPES):
            scope = f"{scope}.{getattr(node, 'name', '<lambda>')}"
        ancestors.append(node)
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)
        ancestors.pop()

    return visit(ast.parse(source), module)


def scan(source: str, module: str, rules) -> dict[str, list[Site]]:
    """Each rule's hits in ``source``, read as ``module``, in source order:
    every rule of ``rules`` in one walk."""
    found = {rule.name: [] for rule in rules}
    for node, scope, ancestors in walk(source, module):
        for rule in rules:
            name = rule.hit(node, ancestors)
            if name:
                allowed = any(fnmatchcase(f"{scope}:{name}", p) for p in rule.allowed)
                found[rule.name].append(Site(scope, node.lineno, allowed))
    return found


def violations(rule: Rule, source: str, module: str) -> list[Site]:
    return [site for site in scan(source, module, [rule])[rule.name] if not site.allowed]


def within(*scopes: str) -> tuple[str, ...]:
    """Patterns allowing any hit in each of ``scopes`` and below it."""
    return tuple(pattern for scope in scopes for pattern in (f"{scope}:*", f"{scope}.*"))


def _callee(node) -> str | None:
    """The name ``node`` calls, directly or as an attribute, if it is a call."""
    if isinstance(node, ast.Call):
        func = node.func
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _extractor_call(node, ancestors):
    name = _callee(node)
    return name if name in ("unify", "extract_ner", "_unify") else None


def _constituents_use(node, ancestors):
    """``x.constituents`` read, written or deleted, or a ``getattr`` or
    ``attrgetter`` call that names it in a string, alone or in a dotted
    path. A name, a parameter or a keyword argument called ``constituents``
    is no use of the attribute."""
    if isinstance(node, ast.Attribute) and node.attr == "constituents" or \
            _callee(node) in ("getattr", "attrgetter") and any(
                isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                and "constituents" in arg.value.split(".") for arg in node.args):
        return "constituents"


# modules whose ``open`` takes the file first and the mode (or flags) second
FILE_FIRST = {"builtins", "codecs", "io", "os"}


def _file_write(node, ancestors):
    """A ``write_text`` or ``write_bytes`` call, or an ``open`` whose mode
    holds w, a, x or + or is not a string constant. The builtin and the
    module functions take the mode second, a method such as ``Path.open``
    first; a mode left out reads."""
    name = _callee(node)
    if name in ("write_text", "write_bytes"):
        return name
    if name != "open":
        return None
    func = node.func
    file_first = isinstance(func, ast.Name) or (isinstance(func.value, ast.Name)
                                                and func.value.id in FILE_FIRST)
    positional = node.args[1 if file_first else 0:]
    mode = next((k.value for k in node.keywords if k.arg in ("mode", "flags")),
                positional[0] if positional else ast.Constant("r"))
    reads = isinstance(mode, ast.Constant) and isinstance(mode.value, str) \
        and not set(mode.value) & set("wax+")
    return None if reads else name


LOADERS = ("read_table", "load_hint_table", "load_regex_rules", "load_tag_hierarchy",
           "load_gazetteer")


def _table_load(node, ancestors):
    """A call of ``read_table`` or a shipped-table loader inside a function
    or lambda, outside any ``default_factory``."""
    name = _callee(node)
    if name not in LOADERS or not any(isinstance(a, FUNCTIONS) for a in ancestors):
        return None
    factory = any(isinstance(a, ast.keyword) and a.arg == "default_factory" for a in ancestors)
    return None if factory else name


def _item_split(node, ancestors):
    """A ``replace`` call that pads a bracket with whitespace, as
    ``text.replace("(", " ( ")`` or ``str.replace(text, ")", ") ")``."""
    func = node.func if isinstance(node, ast.Call) else None
    if not (isinstance(func, ast.Attribute) and func.attr == "replace"):
        return None
    pads = any(isinstance(old, ast.Constant) and old.value in ("(", ")")
               and isinstance(new, ast.Constant) and isinstance(new.value, str)
               and new.value != old.value and new.value.strip() == old.value
               for old, new in zip(node.args, node.args[1:]))
    return "replace" if pads else None


TREE_NAMES = ("ParseTree", "parse_bracketed", "node_spans", "serialize", "analyse")


def _tree_name(node, ancestors):
    """A name in ``TREE_NAMES`` defined, imported or read as an attribute,
    or a ``parse_*`` name defined: a function, a class or an assigned name."""
    if isinstance(node, ast.ImportFrom):
        return next((a.name for a in node.names if a.name in TREE_NAMES), None)
    if isinstance(node, ast.Attribute):
        return node.attr if node.attr in TREE_NAMES else None
    if isinstance(node, DEFINITIONS):
        name = node.name
    elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
        name = node.id
    else:
        return None
    return name if name in TREE_NAMES or name.startswith("parse_") else None


def _metric_point(node, ancestors):
    """A call of ``make_point`` or ``EvalPoint``, or ``make_point`` imported
    or read as an attribute."""
    name = _callee(node)
    if name in ("make_point", "EvalPoint"):
        return name
    if isinstance(node, ast.ImportFrom) and any(a.name == "make_point" for a in node.names) \
            or isinstance(node, ast.Attribute) and node.attr == "make_point":
        return "make_point"


SPLIT = 'text.replace("(", " ( ").replace(")", " ) ").split()'

RULES = (
    Rule("extractors", _extractor_call,
         ("pipeline.extract_candidates:unify", "pipeline.extract_candidates:extract_ner",
          "unification.unify:_unify"),
         """Extraction has one entry point: ``pipeline.extract_candidates`` is
         the only function that calls ``unify`` or ``extract_ner``. So the
         exact pass, the decision to relax only when it finds nothing, the NER
         pass and the one candidate check stay in one place, and the
         benchmark's wrappers of ``pipeline.unify`` and ``pipeline.extract_ner``
         see every extraction. Only ``unification.unify`` calls ``_unify``: a
         direct call would skip the run's memo and those wrappers. A
         definition of either function, and a reference to one that is not
         called, are not calls.""",
         (("def f():\n    return unify(p, s, c)", "m", ["m.f"]),
          ("def f():\n    return unification.unify(p, s, c, d, i, memo)", "m", ["m.f"]),
          ("def f():\n    out = extract_ner(c, s, g, r)", "m", ["m.f"]),
          ("class C:\n    def g(self):\n        return unify(p, s, c)", "m", ["m.C.g"]),
          ("def f():\n    def g():\n        return unify(p, s, c)\n    return g", "m", ["m.f.g"]),
          ("def f():\n    return lambda: extract_ner(c, s, g, r)", "m", ["m.f.<lambda>"]),
          ("X = unify(p, s, c)", "m", ["m"]),
          ("def extract_candidates(state, record):\n    unify(p, s, c)\n"
           "    extract_ner(c, s, g, r)", "m", ["m.extract_candidates", "m.extract_candidates"]),
          ("def extract_candidates(state, record):\n    def each():\n"
           "        return unify(p, s, c)", "pipeline", ["pipeline.extract_candidates.each"]),
          ("def extract_candidates(state, record):\n    return _unify(p, s, c, d, i)",
           "pipeline", ["pipeline.extract_candidates"]),
          ("def f():\n    return _unify(p, s, c, d, i)", "unification", ["unification.f"]),
          ("def extract_candidates(state, record):\n    unify(p, s, c)\n"
           "    extract_ner(c, s, g, r)", "pipeline", []),
          ("def unify(p, s, c):\n    return _unify(p, s, c)", "unification", []),
          ("def f():\n    return unify", "m", []),
          ("def f():\n    return map(extract_ner, cs)", "m", []),
          ("def f():\n    return map(_unify, ps)", "m", []),
          ("def f():\n    return unify_all(p) or extract_ner_fast(c)", "m", [])),
         ("pipeline", "def second_site(state, pattern, sentence):\n"
                      "    return unify(pattern, sentence, state.config)")),
    Rule("constituents", _constituents_use,
         within("treebank", "classify", "knowledge", "unification"),
         """A document sentence's constituents are read only to align a pattern
         or to learn one, and a run that does neither loads its documents
         without them (``cli.cmd_run``, where a view's ``constituents`` is
         None). So only ``treebank``, which builds it, ``classify``, which
         reads a question's (always loaded in full), and ``knowledge`` and
         ``unification``, which learn and align, use a ``constituents``
         attribute. A new reader elsewhere, in NER or retrieval say, would
         meet None in a scenario-1 run.""",
         (("view.constituents", "m", [1]),
          ("x = 1\nstarts = record.view.constituents[0]", "m", [2]),
          ("def f(s):\n    return [e for at in s.constituents for e in at]", "m", [2]),
          ("view.constituents = None", "m", [1]),
          ("del view.constituents", "m", [1]),
          ("getattr(view, 'constituents')", "m", [1]),
          ("getattr(view, 'constituents', None)", "m", [1]),
          ("operator.attrgetter('view.constituents')(sentence)", "m", [1]),
          ("f = attrgetter('tokens', 'constituents')", "m", [1]),
          ("a.constituents\nb.constituents", "m", [1, 2]),
          ("constituents = 1", "m", []),
          ("def f(constituents):\n    return constituents", "m", []),
          ("Sentence(tokens, lowered, stripped, constituents=None)", "m", []),
          ("'constituents'", "m", []),
          ("print('constituents')", "m", []),
          ("getattr(view, 'tokens')", "m", []),
          ("getattr(view, name)", "m", []),
          ("view.constituent", "m", []),
          ("view.constituents_count", "m", [])),
         ("extraction", "def spans(sentence):\n    return sentence.view.constituents")),
    Rule("writes", _file_write,
         ("cli._write:*",),
         """Only ``cli._write`` writes files, so a module that writes its own
         file again (and a write error that escapes the one ``output error:``
         line with it) is flagged.""",
         (('def f():\n    open(p, "w")', "m", ["m.f"]),
          ('def f():\n    open(p, mode="a", encoding="utf-8")', "m", ["m.f"]),
          ('def f():\n    open(p, "r+b")', "m", ["m.f"]),
          ("def f():\n    open(p, chosen)", "m", ["m.f"]),
          ('def f():\n    io.open(p, "x")', "m", ["m.f"]),
          ("def f():\n    os.open(p, os.O_WRONLY)", "m", ["m.f"]),
          ('def f():\n    Path(p).open("w")', "m", ["m.f"]),
          ('def f():\n    p.write_text("")', "m", ["m.f"]),
          ('def f():\n    p.write_bytes(b"")', "m", ["m.f"]),
          ("def f():\n    open(p)", "m", []),
          ('def f():\n    open(p, "rb")', "m", []),
          ('def f():\n    open(p, mode="r", encoding="utf-8")', "m", []),
          ("def f():\n    p.open()", "m", []),
          ('def f():\n    p.open("rb")', "m", []),
          ('def f():\n    handle.write("")', "m", []),
          ('def f():\n    open(p, "w")', "cli", ["cli.f"]),
          ('def _write(p):\n    open(p, "w")', "cli", [])),
         ("knowledge", "def save(kb, path):\n    Path(path).write_text(kb_text(kb))")),
    Rule("table-loads", _table_load,
         within(*(f"*.{name}" for name in (*LOADERS, "default_config"))),
         """Each shipped table is loaded in one place: no function calls
         ``read_table`` or a shipped-table loader, so a stage that reloads a
         table on each call again (when its caller leaves the table out) is
         flagged. Such a call may be made at module or class level, in a
         ``default_factory``, in ``default_config`` and in the loaders
         themselves.""",
         (("def f():\n    load_gazetteer()", "m", ["m.f"]),
          ('def f():\n    return read_table("hints.tsv")', "m", ["m.f"]),
          ("def f(hints=None):\n    if hints is None:\n        hints = load_hint_table()", "m",
           ["m.f"]),
          ("def f():\n    return extraction.load_regex_rules()", "m", ["m.f"]),
          ("def f():\n    return State(gazetteer=load_gazetteer(), top_k=k)", "m", ["m.f"]),
          ("class C:\n    def g(self):\n        return load_tag_hierarchy()", "m", ["m.C.g"]),
          ("def f():\n    def g():\n        return load_gazetteer()\n    return g", "m", ["m.f.g"]),
          ("def f():\n    return lambda: read_table('x')", "m", ["m.f.<lambda>"]),
          ("F = lambda: load_gazetteer()", "m", ["m.<lambda>"]),
          ('STOPWORDS = frozenset(w for w, _ in read_table("stopwords.txt"))', "m", []),
          ("class S:\n    hints: dict = field(default_factory=load_hint_table)", "m", []),
          ("class S:\n    rules: dict = field(default_factory=lambda: load_regex_rules())", "m",
           []),
          ("def default_config():\n    return Config(load_tag_hierarchy())", "m", []),
          ('def load_gazetteer(path=None):\n    return read_table("gazetteer.tsv", path)', "m",
           []),
          ("def f(path):\n    return load_kb(path)", "m", []),
          ("def f():\n    return load_gazetteer", "m", [])),
         ("extraction", "def find_entities(sentence, gazetteer=None):\n"
                        "    return gazetteer or load_gazetteer()")),
    Rule("item-splits", _item_split,
         ("treebank.parse_sentence:*",),
         """One reader reads a parse: only ``treebank.parse_sentence`` splits
         one into brackets and atoms.""",
         ((f"def read_leaves(text):\n    items = {SPLIT}", "treebank",
           ["treebank.read_leaves", "treebank.read_leaves"]),
          (f"def parse_sentence(text):\n    items = {SPLIT}", "corpus",
           ["corpus.parse_sentence", "corpus.parse_sentence"]),
          (f"ITEMS = {SPLIT}", "treebank", ["treebank", "treebank"]),
          ("def f(t):\n    return t.replace(')', ' ) ')", "m", ["m.f"]),
          ("def f(t):\n    return t.replace('(', ' (')", "m", ["m.f"]),
          ("def f(t):\n    return t.replace('(', '\\t(\\n')", "m", ["m.f"]),
          ("def f(t):\n    return str.replace(t, '(', ' ( ')", "m", ["m.f"]),
          ("class C:\n    def g(self, t):\n        return t.replace('(', ' ( ')", "m", ["m.C.g"]),
          ("def f(t):\n    return lambda: t.replace('(', ' ( ')", "m", ["m.f.<lambda>"]),
          ("def parse_sentence(text):\n    def inner():\n        return text.replace('(', ' ( ')",
           "treebank", ["treebank.parse_sentence.inner"]),
          (f"def parse_sentence(text):\n    items = {SPLIT}", "treebank", []),
          ("def f(t):\n    return t.replace('(', '')", "m", []),
          ("def f(t):\n    return t.replace('(', '-LRB-')", "m", []),
          ("def f(t):\n    return t.replace('(', '(')", "m", []),
          ("def f(t):\n    return t.replace('x', ' x ')", "m", []),
          ("def f(t, a, b):\n    return t.replace(a, b)", "m", []),
          ("def f(t):\n    return t.split()", "m", []),
          ("def replace(t):\n    return t", "m", [])),
         ("treebank", f"def read_leaves(text):\n    return {SPLIT}")),
    Rule("tree-names", _tree_name,
         ("treebank:parse_sentence",),
         """Trees do not outlive loading: no module defines, imports or reads a
         tree type, the tree parser, walker or serializer, or the walk that
         analysed a tree (they are kept in ``oracles`` as the reference). Only
         ``treebank`` parses: it defines ``parse_sentence``, the one name
         ``parse_*``.""",
         (("from .oracles import ParseTree, analyse", "m", ["m"]),
          ("def f(tree):\n    return tree.node_spans()", "m", ["m.f"]),
          ("class C:\n    def serialize(self):\n        pass", "m", ["m.C"]),
          ("def parse_sentence(text):\n    pass", "corpus", ["corpus"]),
          ("def parse_sentence(text):\n    parse_rows = text", "treebank",
           ["treebank.parse_sentence"]),
          ("def parse_rows(text):\n    pass", "treebank", ["treebank"]),
          ("def parse_sentence(text):\n    pass", "treebank", []),
          ("def f(analyse):\n    return parse_bracketed", "m", [])),
         ("corpus", "from .treebank import ParseTree")),
    Rule("metric-points", _metric_point,
         within("evaluation"),
         """``evaluation.running_metrics`` is the one accumulator of a run's
         P/R/F series: no other module imports or calls ``make_point`` or
         builds an ``EvalPoint``. The package ``__init__`` re-exports
         ``EvalPoint`` and builds none.""",
         (("from .evaluation import EvalPoint, make_point", "m", ["m"]),
          ("def f():\n    return evaluation.make_point", "m", ["m.f"]),
          ("def f():\n    return EvalPoint(1, 0.5, 0.5, 0.5, 1, 2)", "m", ["m.f"]),
          ("def f():\n    return make_point(i, correct, answered)", "evaluation", []),
          ("from .evaluation import EvalPoint", "m", [])),
         ("pipeline", "def point(i, correct, answered):\n"
                      "    return make_point(i, correct, answered)")),
)


def _package() -> dict[str, str]:
    return {path.stem: path.read_text("utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def test_the_package_keeps_every_rule():
    """No rule flags the package (a failure shows the rule's why), and each
    scan still sees the sites it allows: ``cli._write`` writes,
    ``parse_sentence`` splits twice and is the one parser, and the aligning,
    learning and classifying modules read constituents."""
    sites = {rule.name: [] for rule in RULES}
    for module, source in _package().items():
        for name, found in scan(source, module, RULES).items():
            sites[name] += found
    for rule in RULES:
        assert [f"{s.scope}:{s.line}" for s in sites[rule.name] if not s.allowed] == [], rule.why
    seen = {name: [s.scope for s in found if s.allowed] for name, found in sites.items()}
    assert seen["writes"] == ["cli._write"]
    assert seen["item-splits"] == ["treebank.parse_sentence"] * 2
    assert seen["tree-names"] == ["treebank"]
    assert {scope.split(".")[0] for scope in seen["constituents"]} \
        >= {"classify", "knowledge", "unification"}


@pytest.mark.parametrize("rule, source, module, flagged", [
    pytest.param(rule, *row, id=f"{rule.name}-{i}")
    for rule in RULES for i, row in enumerate(rule.rows)])
def test_each_form_row_flags_its_sites(rule, source, module, flagged):
    found = violations(rule, source, module)
    assert flagged in ([site.scope for site in found], [site.line for site in found])


@pytest.mark.parametrize("rule", RULES, ids=[rule.name for rule in RULES])
def test_each_rule_flags_its_fault_in_the_real_module(rule):
    module, fault = rule.fault
    source = _package()[module]
    first = source.count("\n") + 3
    found = violations(rule, f"{source}\n\n{fault}\n", module)
    assert found and all(site.line >= first for site in found)
