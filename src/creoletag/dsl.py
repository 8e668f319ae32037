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

Serialization is canonical: domains, then trees sorted by name, then
the lexicon sorted by id, then the fusion rules longest pattern first;
attribute lists alphabetical; value sets in domain declaration order.
Loading what serialize produced yields a structurally equal grammar.
"""

from __future__ import annotations

import re
import unicodedata
import weakref
from typing import NamedTuple

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
# a string ends on its line; a backslash takes the next character as it is
_STRING = re.compile(r'"([^"\\\n]*(?:\\.[^"\\\n]*)*)"')
_WORD = re.compile(r'[^ \t\r\n();"]+')
_ESCAPE = re.compile(r"\\(.)")


class Atom(NamedTuple):
    text: str
    line: int
    col: int
    quoted: bool = False


class SList(NamedTuple):
    items: tuple
    line: int
    col: int


def parse_forms(text):
    """Parse source text into a list of SList/Atom forms, in one scan.
    A form's column counts characters from the start of its line."""
    forms = items = []
    stack = []  # per open list: (enclosing items, line, column)
    line, line_start = 1, 0
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        col = i - line_start + 1
        i += 1
        if ch == "\n":
            line, line_start = line + 1, i
        elif ch == ";":
            i = text.find("\n", i)
            if i < 0:
                break
        elif ch == "(":
            stack.append((items, line, col))
            items = []
        elif ch == ")":
            if not stack:
                raise GrammarSyntaxError("unbalanced ')'", line, col)
            outer, l0, c0 = stack.pop()
            outer.append(SList(tuple(items), l0, c0))
            items = outer
        elif ch not in " \t\r":
            if ch == '"':
                match = _STRING.match(text, i - 1)
                if match is None:
                    raise GrammarSyntaxError("unterminated string", line, col)
                body = match.group(1)
                if "\\" in body:
                    body = _ESCAPE.sub(r"\1", body)
                if not unicodedata.is_normalized("NFC", body):
                    raise GrammarSyntaxError("string is not NFC-normalized",
                                             line, col)
                atom = Atom(body, line, col, True)
            else:
                match = _WORD.match(text, i - 1)
                atom = Atom(match.group(), line, col)
            if not stack:
                raise GrammarSyntaxError("top-level atom %r" % atom.text,
                                         line, col)
            items.append(atom)
            i = match.end()
    if stack:
        raise GrammarSyntaxError("unbalanced '('", stack[-1][1], stack[-1][2])
    return forms


def _want_atom(form, what):
    if not isinstance(form, Atom):
        raise GrammarSyntaxError("expected %s" % what, form.line, form.col)
    return form


def _nth_atom(form, index, what):
    """The atom at `form.items[index]`; a missing one is a syntax error
    at the form."""
    if index >= len(form.items):
        raise GrammarSyntaxError("expected %s" % what, form.line, form.col)
    return _want_atom(form.items[index], what)


def _head(form):
    if not isinstance(form, SList) or not form.items:
        raise GrammarSyntaxError("expected a non-empty list",
                                 form.line, form.col)
    return _want_atom(form.items[0], "a keyword").text


def _parse_feature_clauses(forms, where):
    bindings = {}
    for clause in forms:
        if not isinstance(clause, SList) or not clause.items:
            raise GrammarSyntaxError("expected (attr value...) in %s" % where,
                                     clause.line, clause.col)
        attr = _want_atom(clause.items[0], "attribute name").text
        values = clause.items[1:]
        if not values:
            raise GrammarSyntaxError("attribute %r bound to the empty set" % attr,
                                     clause.line, clause.col)
        if len(values) == 1 and isinstance(values[0], Atom) \
                and values[0].text.startswith("$"):
            bindings[attr] = Var(values[0].text[1:])
            continue
        subset = []
        for value in values:
            atom = _want_atom(value, "value symbol")
            if atom.text.startswith("$"):
                raise GrammarSyntaxError(
                    "variable %s mixed with plain values" % atom.text,
                    atom.line, atom.col)
            subset.append(atom.text)
        if len(set(subset)) != len(subset):
            raise GrammarSyntaxError("attribute %r repeats a value" % attr,
                                     clause.line, clause.col)
        cell = frozenset(subset)  # not its own key: the table holds it weakly
        bindings[attr] = _PARSED.setdefault(tuple(sorted(cell)), cell)
    return _PARSED.setdefault((fs := FeatureStruct(bindings)).items(), fs)


def _parse_node(form):
    if _head(form) != "node":
        raise GrammarSyntaxError("expected (node ...)", form.line, form.col)
    label = _nth_atom(form, 1, "node label").text
    kind = INTERNAL
    top = bottom = EMPTY
    children = []
    for clause in form.items[2:]:
        word = _head(clause)
        if word == "kind":
            kw = _nth_atom(clause, 1, "node kind").text
            if kw not in _KIND_WORDS:
                raise GrammarSyntaxError("unknown node kind %r" % kw,
                                         clause.line, clause.col)
            kind = _KIND_WORDS[kw]
        elif word == "top":
            top = _parse_feature_clauses(clause.items[1:], "top")
        elif word == "bottom":
            bottom = _parse_feature_clauses(clause.items[1:], "bottom")
        elif word == "children":
            children = [_parse_node(child) for child in clause.items[1:]]
        else:
            raise GrammarSyntaxError("unknown node clause %r" % word,
                                     clause.line, clause.col)
    return Node(label, kind, top, bottom, tuple(children))


def _parse_tree(form):
    name = _nth_atom(form, 1, "tree name").text
    klass = None
    root = None
    for clause in form.items[2:]:
        word = _head(clause)
        if word == "class":
            kw = _nth_atom(clause, 1, "tree class").text
            if kw not in _CLASS_WORDS:
                raise GrammarSyntaxError("unknown tree class %r" % kw,
                                         clause.line, clause.col)
            klass = _CLASS_WORDS[kw]
        elif word == "node":
            root = _parse_node(clause)
        else:
            raise GrammarSyntaxError("unknown tree clause %r" % word,
                                     clause.line, clause.col)
    if klass is None or root is None:
        raise GrammarSyntaxError("tree %r lacks a class or a root" % name,
                                 form.line, form.col)
    try:
        return ElementaryTree(name=name, klass=klass, root=root)
    except ValueError as exc:
        raise GrammarSyntaxError(str(exc), form.line, form.col) from None


def _parse_lexeme(form):
    lid = _nth_atom(form, 1, "lexeme id").text
    category = None
    variants = []
    for clause in form.items[2:]:
        word = _head(clause)
        if word == "cat":
            category = _nth_atom(clause, 1, "category").text
        elif word == "variant":
            surface_atom = _nth_atom(clause, 1, "a quoted variant surface")
            if not surface_atom.quoted:
                raise GrammarSyntaxError("variant surface must be quoted",
                                         clause.line, clause.col)
            features = _parse_feature_clauses(clause.items[2:], "variant")
            variants.append(Variant(surface=surface_atom.text, features=features))
        else:
            raise GrammarSyntaxError("unknown lexeme clause %r" % word,
                                     clause.line, clause.col)
    if category is None:
        raise GrammarSyntaxError("lexeme %r lacks a category" % lid,
                                 form.line, form.col)
    return Lexeme(id=lid, category=category, variants=tuple(variants))


def _parse_fusion(form):
    items = list(form.items[1:])
    lan = None
    if items and isinstance(items[0], SList) and items[0].items \
            and isinstance(items[0].items[0], Atom) \
            and items[0].items[0].text == "lan" \
            and not items[0].items[0].quoted:
        lan = frozenset(_want_atom(a, "language code").text
                        for a in items[0].items[1:])
        if not lan:
            raise GrammarSyntaxError("fusion rule with empty language guard",
                                     items[0].line, items[0].col)
        items = items[1:]
    if len(items) != 2:
        raise GrammarSyntaxError("fusion rule needs a pattern and a replacement",
                                 form.line, form.col)

    def tokens_of(part, what):
        if isinstance(part, Atom) and part.quoted:
            return (part.text,)
        if isinstance(part, SList):
            toks = []
            for a in part.items:
                atom = _want_atom(a, what)
                if not atom.quoted:
                    raise GrammarSyntaxError("%s tokens must be quoted" % what,
                                             atom.line, atom.col)
                toks.append(atom.text)
            if not toks:
                raise GrammarSyntaxError("empty %s" % what, part.line, part.col)
            return tuple(toks)
        raise GrammarSyntaxError("expected %s tokens" % what,
                                 form.line, form.col)

    pattern = tokens_of(items[0], "pattern")
    replacement = tokens_of(items[1], "replacement")
    return FusionRule(pattern=pattern, replacement=replacement, lan=lan)


def load_grammar(text: str) -> Grammar:
    """Parse, link and validate a grammar; raises on any defect."""
    domains = []
    trees = []
    lexicon = []
    fusion = []
    metadata = None
    for form in parse_forms(text):
        word = _head(form)
        if word == "grammar":
            name = _nth_atom(form, 1, "grammar name").text
            version = "1"
            for clause in form.items[2:]:
                if _head(clause) == "version":
                    version = _nth_atom(clause, 1, "version").text
            metadata = Metadata(name=name, version=version)
        elif word == "domain":
            name = _nth_atom(form, 1, "domain name").text
            if len(form.items) != 3 or not isinstance(form.items[2], SList):
                raise GrammarSyntaxError("domain %r needs one value list" % name,
                                         form.line, form.col)
            values = tuple(_want_atom(a, "domain value").text
                           for a in form.items[2].items)
            try:
                domains.append(AttributeDomain(name=name, values=values))
            except ValueError as exc:
                raise GrammarSyntaxError(str(exc), form.line, form.col) from None
        elif word == "tree":
            trees.append(_parse_tree(form))
        elif word == "lex":
            lexicon.append(_parse_lexeme(form))
        elif word == "fuse":
            fusion.append(_parse_fusion(form))
        else:
            raise GrammarSyntaxError("unknown top-level form %r" % word,
                                     form.line, form.col)
    grammar = Grammar(domains=domains, trees=trees, lexicon=lexicon,
                      fusion_rules=fusion, metadata=metadata)
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
