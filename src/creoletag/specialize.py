"""Project the multidialectal grammar onto a set of dialects.

One projection serves both uses of the language feature.  It erases
`lan` from structures, domains and fusion guards, and drops every tree,
lexeme variant and fusion rule that admits none of the kept dialects,
and every tree whose anchor unifies with no kept variant.  Kept to one
dialect, it is specialization: what is left is an ordinary
single-language grammar.  Kept to every dialect, it drops only trees no
lexeme can anchor (the shipped grammar has none) and gives the relaxed
grammar the recognizer reparses mixed input with.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace

from .errors import EmptyGrammar, InvalidSpec, NoRealization
from .featstruct import erase_attribute, unify
from .generate import generate
from .grammar import Grammar, Metadata
from .trees import ElementaryTree, Node


@dataclass
class SpecializationReport:
    dialect: str
    dropped_trees: list = field(default_factory=list)
    dropped_variants: list = field(default_factory=list)  # (lexeme, surface)
    dropped_lexemes: list = field(default_factory=list)
    dropped_rules: int = 0


def _project(grammar: Grammar, keep: frozenset, suffix: str,
             report: SpecializationReport) -> Grammar:
    """Erase lan, dropping whatever admits no dialect of `keep` and the
    trees no kept variant can anchor; every drop is recorded in
    `report`, trees in name order."""
    def admits(lan):
        return not isinstance(lan, frozenset) or bool(lan & keep)

    def erased(node):
        return Node(node.label, node.kind, erase_attribute(node.top, "lan"),
                    erase_attribute(node.bottom, "lan"),
                    tuple(map(erased, node.children)), node.surface,
                    node.lexeme, node.variant, node.was_foot)

    lexicon = []
    anchors = {}  # category -> the features of its kept variants
    for lexeme in grammar.lexicon:
        variants = []
        for variant in lexeme.variants:
            if admits(variant.features.get("lan")):
                variants.append(variant._replace(features=erase_attribute(
                    variant.features, "lan")))
            else:
                report.dropped_variants.append((lexeme.id, variant.surface))
        if variants:
            lexicon.append(lexeme._replace(variants=tuple(variants)))
            anchors.setdefault(lexeme.category, []).extend(
                variant.features for variant in variants)
        else:
            report.dropped_lexemes.append(lexeme.id)

    def anchorable(tree):
        address = tree.anchor_address()
        if address is None:
            return True
        anchor = tree.node_at(address)
        return any(unify(anchor.bottom, features) is not None
                   for features in anchors.get(anchor.label, ()))

    trees = []
    for tree in grammar.trees:
        if all(admits(node.top.get("lan")) and admits(node.bottom.get("lan"))
               for _, node in tree.nodes()):
            tree = ElementaryTree(tree.name, tree.klass, erased(tree.root))
            if anchorable(tree):
                trees.append(tree)
                continue
        report.dropped_trees.append(tree.name)

    rules = []
    for rule in grammar.fusion_rules:
        if admits(rule.lan):
            rules.append(rule._replace(lan=None))
        else:
            report.dropped_rules += 1

    return Grammar(domains=[d for d in grammar.domains if d.name != "lan"],
                   trees=trees, lexicon=lexicon, fusion_rules=rules,
                   metadata=Metadata(
                       name="%s.%s" % (grammar.metadata.name, suffix),
                       version=grammar.metadata.version))


def specialize(grammar: Grammar, dialect: str) -> Grammar:
    specialized, _ = specialize_with_report(grammar, dialect)
    return specialized


def specialize_with_report(grammar: Grammar, dialect: str):
    """Single-dialect projection plus an audit of everything dropped."""
    if not grammar.dialects:
        return grammar, SpecializationReport(dialect)
    if dialect not in grammar.dialects:
        raise InvalidSpec("unknown dialect %r" % dialect)

    report = SpecializationReport(dialect)
    specialized = _project(grammar, frozenset([dialect]), dialect.lower(),
                           report)
    if not specialized.trees:
        raise EmptyGrammar("no trees survive specialization to %s" % dialect)
    return specialized, report


def project_language(grammar: Grammar) -> Grammar:
    """The projection onto every dialect: `lan` erased, and only the
    trees no lexeme can anchor dropped.

    The result accepts any structurally well-formed string regardless of
    dialect mixing.  Used by the recognizer's mixed-input path.
    """
    if not grammar.dialects:
        return grammar
    return _project(grammar, frozenset(grammar.dialects), "anylan",
                    SpecializationReport("anylan"))


@dataclass
class EquivalenceReport:
    dialect: str
    mismatches: list = field(default_factory=list)  # (spec, base, specialized)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def equivalence_check(grammar: Grammar, dialect: str, corpus) -> EquivalenceReport:
    """Generate each corpus item through the full grammar restricted to the
    dialect and through the specialized grammar, and report each item
    whose ordered (tokens, alternatives) lists differ: the specialized
    grammar, one unnamed dialect, folds alternatives as the whole grammar
    does under that dialect."""
    specialized = specialize(grammar, dialect)
    report = EquivalenceReport(dialect)

    def realized(g, spec):
        try:
            return [(real.tokens, real.alternatives)
                    for real in generate(g, spec)]
        except NoRealization:
            return []

    for spec in corpus:
        base = realized(grammar, dc_replace(spec, lan=frozenset([dialect])))
        mono = realized(specialized, dc_replace(spec, lan=None))
        if base != mono:
            report.mismatches.append((spec, base, mono))
    return report
