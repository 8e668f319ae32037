"""Project the multidialectal grammar onto a set of dialects.

One projection serves both uses of the language feature.  It erases
`lan` from structures, domains and fusion guards, and drops every tree,
lexeme variant and fusion rule that admits none of the kept dialects.
Kept to one dialect, it is specialization: the trees that no remaining
lexeme can anchor go too, and what is left is an ordinary
single-language grammar.  Kept to every dialect, it drops nothing and
gives the relaxed grammar the recognizer reparses mixed input with.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace

from . import engine
from .errors import AnchorUnificationFailure, EmptyGrammar, InvalidSpec, \
    NoRealization
from .featstruct import erase_attribute
from .generate import generate
from .grammar import Grammar, Metadata
from .trees import ElementaryTree


@dataclass
class SpecializationReport:
    dialect: str
    dropped_trees: list = field(default_factory=list)
    dropped_variants: list = field(default_factory=list)  # (lexeme, surface)
    dropped_lexemes: list = field(default_factory=list)
    dropped_rules: int = 0


def _project(grammar: Grammar, keep: frozenset, suffix: str,
             report: SpecializationReport) -> Grammar:
    """Erase lan, dropping whatever admits no dialect of `keep`; every
    drop is recorded in `report`."""
    def admits(lan):
        return not isinstance(lan, frozenset) or bool(lan & keep)

    def erased(node):
        return dc_replace(node, top=erase_attribute(node.top, "lan"),
                          bottom=erase_attribute(node.bottom, "lan"),
                          children=tuple(map(erased, node.children)))

    lexicon = []
    for lexeme in grammar.lexicon:
        variants = []
        for variant in lexeme.variants:
            if admits(variant.features.get("lan")):
                variants.append(dc_replace(variant, features=erase_attribute(
                    variant.features, "lan")))
            else:
                report.dropped_variants.append((lexeme.id, variant.surface))
        if variants:
            lexicon.append(dc_replace(lexeme, variants=tuple(variants)))
        else:
            report.dropped_lexemes.append(lexeme.id)

    trees = []
    for tree in grammar.trees:
        if all(admits(node.top.get("lan")) and admits(node.bottom.get("lan"))
               for _, node in tree.nodes()):
            trees.append(dc_replace(tree, root=erased(tree.root)))
        else:
            report.dropped_trees.append(tree.name)

    rules = []
    for rule in grammar.fusion_rules:
        if admits(rule.lan):
            rules.append(dc_replace(rule, lan=None))
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
    if "lan" not in grammar.schema:
        return grammar, SpecializationReport(dialect)
    if dialect not in grammar.schema.full("lan"):
        raise InvalidSpec("unknown dialect %r" % dialect)

    report = SpecializationReport(dialect)
    candidate = _project(grammar, frozenset([dialect]), dialect.lower(),
                         report)
    kept_trees = []
    for tree in candidate.trees:
        if _anchor_fillable(candidate, tree):
            kept_trees.append(tree)
        else:
            report.dropped_trees.append(tree.name)
    if not kept_trees:
        raise EmptyGrammar("no trees survive specialization to %s" % dialect)

    specialized = Grammar(domains=candidate.domains, trees=kept_trees,
                          lexicon=candidate.lexicon,
                          fusion_rules=candidate.fusion_rules,
                          metadata=candidate.metadata)
    report.dropped_trees.sort()
    return specialized, report


def _anchor_fillable(grammar: Grammar, tree: ElementaryTree) -> bool:
    label = tree.anchor_label
    if label is None:
        return True
    for lexeme in grammar.lexemes_of_category(label):
        for index in range(len(lexeme.variants)):
            try:
                engine.instantiate(grammar, tree, lexeme.id, index)
                return True
            except AnchorUnificationFailure:
                continue
    return False


def project_language(grammar: Grammar) -> Grammar:
    """The projection onto every dialect: `lan` erased, nothing dropped.

    The result accepts any structurally well-formed string regardless of
    dialect mixing.  Used by the recognizer's mixed-input path.
    """
    if "lan" not in grammar.schema:
        return grammar
    return _project(grammar, grammar.schema.full("lan"), "anylan",
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
    dialect and through the specialized grammar; report token-set diffs."""
    specialized = specialize(grammar, dialect)
    report = EquivalenceReport(dialect)

    def token_sets(g, spec):
        try:
            reals = generate(g, spec)
        except NoRealization:
            return frozenset()
        out = set()
        for real in reals:
            out.add(real.tokens)
            out.update(real.alternatives)
        return frozenset(out)

    for spec in corpus:
        base = token_sets(grammar, dc_replace(spec, lan=frozenset([dialect])))
        mono = token_sets(specialized, dc_replace(spec, lan=None))
        if base != mono:
            report.mismatches.append((spec, sorted(base), sorted(mono)))
    return report
