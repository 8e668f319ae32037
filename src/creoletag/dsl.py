"""Textual grammar format: line-oriented s-expressions in UTF-8.

    (grammar creole (version 1))
    (domain lan (HT GP MQ GF))
    (tree alpha-N (class initial)
      (node N (kind internal)
        (bottom (bar 1) (cns $C) (lan $L))
        (children
          (node N (kind anchor) (bottom (cns $C) (lan $L))))))
    (lex PERSON (cat N) (variant "moun" (lan HT GP MQ GF) (cns +) (nas +)))
    (fuse (lan HT) ("te" "ap") ("tap"))

A feature clause ``(attr v1 v2)`` binds the attribute to the subset
{v1, v2}; ``(attr $X)`` binds it to a variable; an absent attribute is
unspecified.  Comments run from ``;`` to end of line.  Creole
orthography uses precomposed characters, and surface tokens compare
byte-exactly, so a quoted string that is not NFC is a syntax error.

Loading reads the tokens that one regular expression finds in the text
by one recursive descent.  It knows a token by its index: line and
column are counted, by scanning again, only when a syntax error is raised.

Serialization is canonical: domains, then trees sorted by name, then
the lexicon sorted by id, then the fusion rules longest pattern first;
attribute lists alphabetical; value sets in domain declaration order.
Loading what serialize produced yields a structurally equal grammar.
"""

from __future__ import annotations

import itertools
import re
import unicodedata
import weakref

from .errors import GrammarSyntaxError, ValidationError
from .featstruct import EMPTY, AttributeDomain, FeatureStruct, Var
from .grammar import (FusionRule, Grammar, Lexeme, Metadata, Variant,
                      validate)
from .trees import ANCHOR, AUXILIARY, FOOT, INITIAL, INTERNAL, SUBST, \
    ElementaryTree, Node

_KIND_WORDS = {"internal": INTERNAL, "anchor": ANCHOR,
               "subst": SUBST, "foot": FOOT}
_CLASS_WORDS = {"initial": INITIAL, "aux": AUXILIARY}
_PARSED = weakref.WeakValueDictionary()  # equal parsed values: one object
# blanks and comments, then a token: a parenthesis, a word, a string (it
# ends on its line; a backslash takes the next character as it is), a
# quote that opens none, or "" at the end, once or twice
_TOKEN = re.compile(r'[ \t\r\n]*(?:;[^\n]*[ \t\r\n]*)*'
                    r'([()]|[^ \t\r\n();"]+|"[^"\\\n]*(?:\\.[^"\\\n]*)*"|"|\Z)')
_ESCAPE = re.compile(r"\\(.)")


class _Fault(Exception):
    """A syntax error at a token index: (message, index)."""


def _string(tok, at):
    """The text of the string token `tok` at index `at`."""
    if tok == '"':
        raise _Fault("unterminated string", at)
    body = tok[1:-1]
    if "\\" in body:
        body = _ESCAPE.sub(r"\1", body)
    if not unicodedata.is_normalized("NFC", body):
        raise _Fault("string is not NFC-normalized", at)
    return body


def _atom(toks, i, start, what):
    """The text of toks[i], an atom of the list that opens at toks[start]."""
    tok = toks[i]
    if tok == "(":
        raise _Fault("expected %s" % what, i)
    if tok == ")" or not tok:
        raise _Fault("expected %s" % what, start)
    return _string(tok, i) if tok[0] == '"' else tok


def _head(toks, i):
    """The keyword of the list at toks[i]."""
    if toks[i] != "(" or toks[i + 1] == ")":
        raise _Fault("expected a non-empty list", i)
    return _atom(toks, i + 1, i, "a keyword")


def _close(toks, i):
    """The index past the ")" that closes the items from toks[i] on."""
    depth = 0
    while (tok := toks[i]) != ")" or depth:
        if tok == "(":
            depth += 1
        elif tok == ")":
            depth -= 1
        elif not tok:
            raise _Fault("unbalanced '('", i)
        elif tok[0] == '"':
            _string(tok, i)
        i += 1
    return i + 1


def _first_fault(toks):
    """The first fault that no form need be read to see: a ")" that closes
    nothing, a bad string or an atom outside every list, else the
    innermost "(" left open; None if there is none."""
    opens = []
    for i, tok in enumerate(toks):
        if tok == "(":
            opens.append(i)
        elif tok == ")":
            if not opens:
                return "unbalanced ')'", i
            opens.pop()
        elif tok:
            try:
                text = _string(tok, i) if tok[0] == '"' else tok
            except _Fault as fault:
                return fault.args
            if not opens:
                return "top-level atom %r" % text, i
    return ("unbalanced '('", opens[-1]) if opens else None


def _features(toks, i, where):
    """The structure of the clauses from toks[i] on, and the index past."""
    bindings = {}
    while (tok := toks[i]) != ")":
        if tok != "(" or toks[i + 1] == ")":
            raise _Fault("expected (attr value...) in %s" % where, i)
        start = i
        attr = _atom(toks, i + 1, i, "attribute name")
        i += 2
        values = []
        while toks[i] != ")":
            value = _atom(toks, i, start, "value symbol")
            if value[:1] == "$" and (values or toks[i + 1] != ")"):
                raise _Fault("variable %s mixed with plain values" % value, i)
            values.append(value)
            i += 1
        i += 1
        if not values:
            raise _Fault("attribute %r bound to the empty set" % attr, start)
        if values[0][:1] == "$":
            bindings[attr] = Var(values[0][1:])
            continue
        if len(set(values)) != len(values):
            raise _Fault("attribute %r repeats a value" % attr, start)
        # a value is not its own key: the table holds it weakly
        bindings[attr] = _PARSED.setdefault(tuple(sorted(values)),
                                            frozenset(values))
    items = tuple(sorted(bindings.items()))
    return _PARSED.setdefault(items, FeatureStruct._of(items)), i + 1


def _keyword(toks, i, words, what):
    """The `words` entry the clause at toks[i] names, and the index past."""
    word = _atom(toks, i + 2, i, what)
    if word not in words:
        raise _Fault("unknown %s %r" % (what, word), i)
    return words[word], _close(toks, i + 3)


def _node(toks, i):
    """The node whose list opens at toks[i], and the index past it."""
    if _head(toks, i) != "node":
        raise _Fault("expected (node ...)", i)
    label = _atom(toks, i + 2, i, "node label")
    kind, top, bottom, children = INTERNAL, EMPTY, EMPTY, ()
    i += 3
    while toks[i] != ")":
        word = _head(toks, i)
        if word == "kind":
            kind, i = _keyword(toks, i, _KIND_WORDS, "node kind")
        elif word == "top":
            top, i = _features(toks, i + 2, "top")
        elif word == "bottom":
            bottom, i = _features(toks, i + 2, "bottom")
        elif word == "children":
            nodes, i = [], i + 2
            while toks[i] != ")":
                child, i = _node(toks, i)
                nodes.append(child)
            children, i = tuple(nodes), i + 1
        else:
            raise _Fault("unknown node clause %r" % word, i)
    return Node(label, kind, top, bottom, children), i + 1


def _tree(toks, i):
    start = i
    name = _atom(toks, i + 2, i, "tree name")
    klass = root = None
    i += 3
    while toks[i] != ")":
        word = _head(toks, i)
        if word == "class":
            klass, i = _keyword(toks, i, _CLASS_WORDS, "tree class")
        elif word == "node":
            root, i = _node(toks, i)
        else:
            raise _Fault("unknown tree clause %r" % word, i)
    if klass is None or root is None:
        raise _Fault("tree %r lacks a class or a root" % name, start)
    try:
        return ElementaryTree(name, klass, root), i + 1
    except ValueError as exc:
        raise _Fault(str(exc), start) from None


def _lexeme(toks, i):
    start = i
    lid = _atom(toks, i + 2, i, "lexeme id")
    category = None
    variants = []
    i += 3
    while toks[i] != ")":
        word = _head(toks, i)
        if word == "cat":
            category = _atom(toks, i + 2, i, "category")
            i = _close(toks, i + 3)
        elif word == "variant":
            surface = _atom(toks, i + 2, i, "a quoted variant surface")
            if toks[i + 2][0] != '"':
                raise _Fault("variant surface must be quoted", i)
            features, i = _features(toks, i + 3, "variant")
            variants.append(Variant(surface, features))
        else:
            raise _Fault("unknown lexeme clause %r" % word, i)
    if category is None:
        raise _Fault("lexeme %r lacks a category" % lid, start)
    return Lexeme(lid, category, tuple(variants)), i + 1


def _fusion_tokens(toks, i, start, what):
    """The tokens of the pattern or replacement at toks[i]."""
    if toks[i] != "(":
        if toks[i][0] != '"':
            raise _Fault("expected %s tokens" % what, start)
        return (_string(toks[i], i),)
    out = []
    for j in range(i + 1, _close(toks, i + 1) - 1):
        out.append(_atom(toks, j, i, what))
        if toks[j][0] != '"':
            raise _Fault("%s tokens must be quoted" % what, j)
    if not out:
        raise _Fault("empty %s" % what, i)
    return tuple(out)


def _fusion(toks, i):
    parts, j, end = [], i + 2, _close(toks, i + 2)  # parts: item indices
    while j < end - 1:
        parts.append(j)
        j = _close(toks, j + 1) if toks[j] == "(" else j + 1
    lan = None
    if parts and toks[parts[0]] == "(" and toks[parts[0] + 1] == "lan":
        guard = parts.pop(0)
        lan = frozenset(_atom(toks, k, guard, "language code")
                        for k in range(guard + 2, _close(toks, guard + 2) - 1))
        if not lan:
            raise _Fault("fusion rule with empty language guard", guard)
    if len(parts) != 2:
        raise _Fault("fusion rule needs a pattern and a replacement", i)
    return FusionRule(_fusion_tokens(toks, parts[0], i, "pattern"),
                      _fusion_tokens(toks, parts[1], i, "replacement"),
                      lan), end


def _domain(toks, i):
    name = _atom(toks, i + 2, i, "domain name")
    if toks[i + 3] != "(" or toks[end := _close(toks, i + 4)] != ")":
        raise _Fault("domain %r needs one value list" % name, i)
    values = tuple(_atom(toks, k, i + 3, "domain value")
                   for k in range(i + 4, end - 1))
    try:
        return AttributeDomain(name, values), end + 1
    except ValueError as exc:
        raise _Fault(str(exc), i) from None


def _metadata(toks, i):
    name = _atom(toks, i + 2, i, "grammar name")
    version = "1"
    i += 3
    while toks[i] != ")":
        if _head(toks, i) == "version":
            version = _atom(toks, i + 2, i, "version")
        i = _close(toks, i + 2)
    return Metadata(name, version), i + 1


_READERS = {"grammar": _metadata, "domain": _domain, "tree": _tree,
            "lex": _lexeme, "fuse": _fusion}


def load_grammar(text: str) -> Grammar:
    """Parse, link and validate a grammar; raises on any defect."""
    toks = _TOKEN.findall(text)
    forms = {word: [] for word in _READERS}
    i = 0
    try:
        while toks[i]:
            if (word := _head(toks, i)) not in _READERS:
                raise _Fault("unknown top-level form %r" % word, i)
            form, i = _READERS[word](toks, i)
            forms[word].append(form)
    except _Fault as fault:
        message, at = _first_fault(toks) or fault.args
        start = next(itertools.islice(_TOKEN.finditer(text), at, None)).start(1)
        raise GrammarSyntaxError(message, text.count("\n", 0, start) + 1,
                                 start - text.rfind("\n", 0, start)) from None
    grammar = Grammar(forms["domain"], forms["tree"], forms["lex"],
                      forms["fuse"], (forms["grammar"] or [None])[-1])
    findings = validate(grammar)
    if findings:
        raise ValidationError(findings)
    return grammar


# --- serialization ----------------------------------------------------------

def _quote(text: str) -> str:
    return '"%s"' % text.replace("\\", "\\\\").replace('"', '\\"')


def _fmt_cell(grammar, attr, cell):
    if isinstance(cell, Var):
        return "(%s $%s)" % (attr, cell.name)
    key = grammar.schema.sort_key(attr) if attr in grammar.schema else None
    return "(%s %s)" % (attr, " ".join(sorted(cell, key=key)))


def _fmt_fs(grammar, fs):
    return " ".join(_fmt_cell(grammar, attr, cell) for attr, cell in fs.items())


def _fmt_node(grammar, node, indent):
    pad = " " * indent
    parts = ["%s(node %s (kind %s)" % (pad, node.label, node.kind)]
    if len(node.top):
        parts.append("%s  (top %s)" % (pad, _fmt_fs(grammar, node.top)))
    if len(node.bottom):
        parts.append("%s  (bottom %s)" % (pad, _fmt_fs(grammar, node.bottom)))
    if node.children:
        parts.append("%s  (children" % pad)
        for child in node.children:
            parts.append(_fmt_node(grammar, child, indent + 4))
        parts[-1] += ")"
    parts[-1] += ")"
    return "\n".join(parts)


def serialize(grammar: Grammar) -> str:
    """Canonical textual form; byte-identical for equal grammars."""
    out = []
    out.append("(grammar %s (version %s))"
               % (grammar.metadata.name, grammar.metadata.version))
    out.append("")
    for dom in grammar.domains:
        out.append("(domain %s (%s))" % (dom.name, " ".join(dom.values)))
    out.append("")
    for tree in grammar.trees:
        out.append("(tree %s (class %s)" % (tree.name, tree.klass))
        out.append(_fmt_node(grammar, tree.root, 2) + ")")
        out.append("")
    for lexeme in grammar.lexicon:
        out.append("(lex %s (cat %s)" % (lexeme.id, lexeme.category))
        for variant in lexeme.variants:
            out.append("  (variant %s %s)"
                       % (_quote(variant.surface),
                          _fmt_fs(grammar, variant.features)))
        out[-1] += ")"
        out.append("")
    for rule in grammar.fusion_rules:
        guard = "" if rule.lan is None else _fmt_cell(grammar, "lan",
                                                      rule.lan) + " "
        out.append("(fuse %s(%s) (%s))"
                   % (guard,
                      " ".join(_quote(t) for t in rule.pattern),
                      " ".join(_quote(t) for t in rule.replacement)))
    text = "\n".join(out).rstrip("\n") + "\n"
    return text
