"""Surface realization from flat semantic specifications.

Every request is one derivation search under its goal,
:func:`creoletag.engine.enumerate_derivations`, over the grammar's own
trees: the specification's content lexemes (noun, complement,
predicate) anchor it, each exactly once, and any other lexeme may come
in as a particle wherever the grammar lets it.  A sentence is no
exception: the grammar's S tree carries its parts' features.  Only the
request's top tree is searched under its goal; the engine fills its
sites with parts derived once per grammar and content.  A paradigm
table fills each row in one pass over the grammar's part table for its
category and content, found under the empty goal: each part is
pretested once, on its root's code, against the row's goal without
lan, each dialect's cell keeps the survivors whose root code admits
that dialect, and :func:`realizations_from_finals` fuses, merges and
groups a cell as it does a request's own search results.

A request is one goal in every dialect.  How each dialect marks a
bundle is the grammar's business: the conditional, for one, is the
Martinican sé tree or the syncretic past-over-prospective tree whose
root admits only the other dialects.

Realizations identical in tokens merge with unioned language sets (the
dialectal continuum made visible); a realization whose language set is
contained in another's is folded into it as a listed alternative (the
optional Guianese imperfective particle and the k'alé/kay doublet).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from . import engine
from .errors import InvalidSpec, MissingCell, NoRealization
from .featstruct import EMPTY, UNBOUND, FeatureStruct
from .grammar import Grammar

ASPECTS = ("none", "imp", "frq", "prg")
NUMBERS = ("sg", "pl")


@dataclass(frozen=True)
class NPSpec:
    """Determination request for one noun phrase; dem implies spe."""

    lexeme: str
    nbr: str = "sg"
    spe: bool = False
    dem: bool = False
    complement: Optional[str] = None

    def __post_init__(self):
        if self.nbr not in NUMBERS:
            raise InvalidSpec("nbr must be sg or pl, not %r" % (self.nbr,))
        if self.dem and not self.spe:
            object.__setattr__(self, "spe", True)


@dataclass(frozen=True)
class TMA:
    pas: bool = False
    psp: bool = False
    prx: bool = False
    cnd: bool = False
    asp: str = "none"

    def __post_init__(self):
        if self.asp not in ASPECTS:
            raise InvalidSpec("asp must be one of %s" % (ASPECTS,))
        if self.prx and (self.psp or self.cnd):
            raise InvalidSpec("prx replaces the plain future; drop %s" % (
                "psp" if self.psp else "cnd, whose syncretic tree needs it"))
        if self.cnd and (self.pas or self.psp):
            raise InvalidSpec("cnd has its own trees, a syncretic one among "
                              "them; do not set pas or psp with it")


@dataclass(frozen=True)
class SemSpec:
    pred: Optional[str] = None
    args: tuple = ()
    tma: TMA = field(default_factory=TMA)
    lan: Optional[frozenset] = None

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        if not all(isinstance(arg, NPSpec) for arg in self.args):
            raise InvalidSpec("args must be NPSpecs, not %r" % (self.args,))
        if not isinstance(self.tma, TMA):
            raise InvalidSpec("tma must be a TMA, not %r" % (self.tma,))
        if isinstance(self.lan, str):  # frozenset() would split it
            raise InvalidSpec("lan must be a set of codes, not %r" % self.lan)
        if self.lan is not None:
            object.__setattr__(self, "lan", frozenset(self.lan))
            if not self.lan:
                raise InvalidSpec("lan constraint must not be empty")
        if self.pred is None and len(self.args) != 1:
            raise InvalidSpec("without a predicate, exactly one noun phrase "
                              "must be requested")
        if self.pred is None and self.tma != TMA():
            raise InvalidSpec("a tma needs a pred to mark")
        if len(self.args) > 1:
            raise InvalidSpec("the shipped fragment covers at most one argument")


class Realization(NamedTuple):
    tokens: tuple
    lan_set: frozenset
    alternatives: tuple = ()
    trace: tuple = ()
    features: FeatureStruct = EMPTY


_JSON_KINDS = dict.fromkeys(("spe", "dem", "pas", "psp", "prx", "cnd"), bool)
_JSON_KINDS.update(args=list, tma=dict, lan=list)


def _typed(where, obj, known):
    """`obj` if it is a JSON object of `known` fields, each of the JSON
    type `_JSON_KINDS` names, or else a string."""
    if not isinstance(obj, dict):
        raise InvalidSpec("%s must be a JSON object" % where)
    unknown = set(obj) - known
    if unknown:
        raise InvalidSpec("%s has unknown fields: %s"
                          % (where, ", ".join(sorted(unknown))))
    for key, value in obj.items():
        kind = _JSON_KINDS.get(key, str)
        if not isinstance(value, kind):
            raise InvalidSpec("%s: %s must be a %s, not %r"
                              % (where, key, kind.__name__, value))
    return obj


def semspec_from_json(data) -> SemSpec:
    """Build a SemSpec from the CLI's JSON document.  A value of the
    wrong JSON type, or a demonstrative said not to be specific, is
    rejected, never coerced."""
    if not data:
        raise InvalidSpec("semantic input must be a non-empty JSON object")
    _typed("semantic input", data, {"pred", "args", "tma", "lan"})
    if "tma" in data and data.get("pred") is None:
        raise InvalidSpec("a tma needs a pred to mark")
    args = []
    for i, item in enumerate(data.get("args", [])):
        if not isinstance(item, dict) or "lexeme" not in item:
            raise InvalidSpec("args[%d] needs at least a lexeme" % i)
        item = _typed("args[%d]" % i, item, {
            "lexeme", "nbr", "spe", "dem", "complement"})
        if item.get("dem") and item.get("spe") is False:
            raise InvalidSpec("args[%d]: dem implies spe, not spe false" % i)
        args.append(NPSpec(**item))
    tma = TMA(**_typed("tma", data.get("tma", {}),
                       {"pas", "psp", "prx", "cnd", "asp"}))
    lan = data.get("lan")
    if lan is not None and not (lan and all(isinstance(c, str) for c in lan)):
        raise InvalidSpec("lan must be a non-empty list of language codes")
    return SemSpec(pred=data.get("pred"), args=tuple(args), tma=tma,
                   lan=None if lan is None else frozenset(lan))


# --- fusion -----------------------------------------------------------------

def apply_fusion(tokens, lan_set, rules):
    """One left-to-right pass, longest pattern first, once per position.

    `rules` come in that order, as :class:`Grammar` keeps them.  Only
    rules whose language guard covers the whole `lan_set` fire, and
    `tokens` come back unchanged when no such rule's first pattern token
    occurs in them.  Generation and recognition fuse by this one rule,
    so every fused string a derivation yields can be recognized again.
    """
    entries = [(t, None) for t in tokens]
    merged = fuse_with_sources(entries, lan_set, rules)
    return tokens if merged is entries else [token for token, _ in merged]


def fuse_with_sources(entries, lan_set, rules):
    """Like apply_fusion over (token, payload) pairs.

    Payloads are tuples of source units.  A fused window concatenates
    its payloads and every replacement token carries the combined tuple,
    which is how per-token provenance survives fusion.
    """
    lan_set, tokens = frozenset(lan_set), {t for t, _ in entries}
    applicable = [r for r in rules if r.pattern[0] in tokens
                  and (r.lan is None or lan_set <= r.lan)]
    if not applicable:
        return entries
    out = []
    i = 0
    while i < len(entries):
        for rule in applicable:
            window = entries[i:i + len(rule.pattern)]
            if tuple(t for t, _ in window) == rule.pattern:
                payloads = tuple(unit for _, p in window if p is not None
                                 for unit in p)
                out.extend((token, payloads or None)
                           for token in rule.replacement)
                i += len(window)
                break
        else:
            out.append(entries[i])
            i += 1
    return out


# --- derivation ---------------------------------------------------------------

# the categories of the lexemes a SemSpec names; a lexeme of any other
# category is a particle the search may add wherever the grammar allows
_CONTENT_CATEGORIES = frozenset(("N", "Nprop", "V"))


def _particles(grammar):  # found once, kept on the grammar
    if grammar._particles is None:  # noqa: SLF001 - same-package friend
        grammar._particles = frozenset(  # noqa: SLF001
            lexeme.id for lexeme in grammar.lexicon
            if lexeme.category not in _CONTENT_CATEGORIES)
    return grammar._particles  # noqa: SLF001


def _content(grammar, spec: SemSpec):
    """The spec's content lexemes (noun, complement, predicate), each
    checked against the grammar."""
    np = spec.args[0] if spec.args else None
    content = tuple(lexeme_id for lexeme_id in (
        np and np.lexeme, np and np.complement, spec.pred) if lexeme_id)
    for lexeme_id in content:
        if not grammar.has_lexeme(lexeme_id):
            raise InvalidSpec("unknown lexeme %r" % lexeme_id)
    return content


# --- goals -------------------------------------------------------------------

_PLUS = frozenset("+")
_MINUS = frozenset("-")


def _np_values(np_spec: NPSpec):
    return {"nbr": frozenset([np_spec.nbr]),
            "spe": _PLUS if np_spec.spe else _MINUS,
            "dem": _PLUS if np_spec.dem else _MINUS}


def _tma_values(tma: TMA):
    return {"pas": _PLUS if tma.pas else _MINUS,
            "psp": _PLUS if tma.psp else _MINUS,
            "prx": _PLUS if tma.prx else _MINUS,
            "cnd": _PLUS if tma.cnd else _MINUS,
            "asp": frozenset(["non" if tma.asp == "none" else tma.asp])}


def check_lan(grammar, lan):
    """Raise InvalidSpec unless every code in `lan` is one of the
    grammar's dialects."""
    if not grammar.dialects:
        raise InvalidSpec("this grammar has no language attribute left")
    unknown = lan.difference(grammar.dialects)
    if unknown:
        raise InvalidSpec("unknown language codes: %s"
                          % ",".join(sorted(unknown)))


def _goal_for(grammar, spec: SemSpec):
    """(category, goal FS) for a semantic specification, checked against
    the grammar's schema; one goal serves every dialect."""
    lan = spec.lan
    if lan is not None:
        check_lan(grammar, lan)
    if spec.pred is None:
        category, goal = "NP", _np_values(spec.args[0])
    elif not spec.args:
        category, goal = "Pred", _tma_values(spec.tma)
    else:
        category, goal = "S", {**_np_values(spec.args[0]),
                               **_tma_values(spec.tma)}
    if lan:
        goal["lan"] = lan
    goal = FeatureStruct(goal)
    grammar.schema.check(goal)
    return category, goal


# --- assembling realizations --------------------------------------------------

def realizations_from_finals(grammar, finals, goal):
    """Fuse, merge and fold finalized derivations that fit the goal.  A
    realization's language set is its derivation's, narrowed by the
    goal's; a grammar without `lan`, one unnamed dialect, gives every
    realization the empty set.  A realization whose set is contained in
    another's is folded into it, so a grammar specialized to a dialect
    lists what the whole grammar lists under that dialect.

    `finals` is an iterable of (FinalizeResult, trace) pairs: a search's
    results, or the part table entries a variable-free goal's code admits.
    """
    dialects = frozenset(grammar.dialects)
    goal_lan, rules = goal.get("lan", dialects), grammar.fusion_rules
    merged = {}
    for final, trace in finals:
        lan = final.features.get("lan", dialects) & goal_lan
        tokens = tuple(apply_fusion(final.frontier, lan, rules))
        if tokens in merged:
            old_lan, old_features, old_trace = merged[tokens]
            merged[tokens] = (old_lan | lan, old_features, old_trace)
        else:
            merged[tokens] = (lan, final.features, trace)

    realizations = []
    for tokens, (lan, features, trace) in merged.items():
        if "lan" in features:  # the items stay sorted
            features = FeatureStruct._of(tuple(
                (attr, lan if attr == "lan" else cell)
                for attr, cell in features.items()))
        realizations.append(Realization(tokens=tokens, lan_set=lan,
                                        trace=trace, features=features))
    if len(realizations) < 2:
        return realizations

    realizations.sort(key=lambda r: (-len(r.lan_set), -len(r.tokens), r.tokens))
    kept = []
    for real in realizations:
        for i, host in enumerate(kept):
            if real.lan_set <= host.lan_set:
                kept[i] = host._replace(
                    alternatives=host.alternatives + (real.tokens,))
                break
        else:
            kept.append(real)

    rank = grammar.dialects.index
    kept.sort(key=lambda real: (sorted(map(rank, real.lan_set)), real.tokens))
    return kept


def generate(grammar: Grammar, spec: SemSpec):
    """All maximal realizations of a semantic specification, merged and
    deterministically ordered.  Raises NoRealization when nothing derives."""
    category, goal = _goal_for(grammar, spec)
    content = _content(grammar, spec)
    searched = engine.enumerate_derivations(
        grammar, category, goal,
        lexemes=_particles(grammar).union(content), content=content)
    out = realizations_from_finals(
        grammar, [(final, derived.history) for derived, final in searched], goal)
    if not out:
        raise NoRealization("nothing derives the requested specification")
    return out


# --- paradigm tables ----------------------------------------------------------

NP_ROWS = (
    ("generic-person", NPSpec("PERSON", nbr="pl")),
    ("sg-indef-person", NPSpec("PERSON", nbr="sg")),
    ("sg-spec-person", NPSpec("PERSON", nbr="sg", spe=True)),
    ("sg-spec-table", NPSpec("TABLE", nbr="sg", spe=True)),
    ("sg-spec-dog", NPSpec("DOG", nbr="sg", spe=True)),
    ("sg-spec-bird", NPSpec("BIRD", nbr="sg", spe=True)),
    ("sg-dem-person", NPSpec("PERSON", nbr="sg", spe=True, dem=True)),
    ("sg-dem-table", NPSpec("TABLE", nbr="sg", spe=True, dem=True)),
    ("pl-indef-person", NPSpec("PERSON", nbr="pl")),
    ("pl-spec-person", NPSpec("PERSON", nbr="pl", spe=True)),
    ("pl-spec-table", NPSpec("TABLE", nbr="pl", spe=True)),
    ("pl-spec-dog", NPSpec("DOG", nbr="pl", spe=True)),
    ("pl-spec-bird", NPSpec("BIRD", nbr="pl", spe=True)),
    ("pl-dem-person", NPSpec("PERSON", nbr="pl", spe=True, dem=True)),
    ("pl-dem-table", NPSpec("TABLE", nbr="pl", spe=True, dem=True)),
)

TMA_ROWS = (
    ("accomplished", TMA()),
    ("unaccomplished-present", TMA(asp="imp")),
    ("frequentative", TMA(asp="frq")),
    ("progressive", TMA(asp="prg")),
    ("near-future", TMA(prx=True)),
    ("future", TMA(psp=True)),
    ("unaccomplished-future", TMA(psp=True, asp="imp")),
    ("accomplished-past", TMA(pas=True)),
    ("unaccomplished-past", TMA(pas=True, asp="imp")),
    ("irrealis", TMA(pas=True, psp=True)),
    ("irrealis-unaccomplished", TMA(pas=True, psp=True, asp="imp")),
    ("conditional", TMA(cnd=True)),
)


def _lans(grammar):
    """Each dialect with the code of its cells' lan value."""
    code = grammar.schema.code
    return [(dialect, code(FeatureStruct(lan=(dialect,)), UNBOUND))
            for dialect in grammar.dialects]


def _row(grammar, spec: SemSpec, lans=None):
    """(dialect, realizations) per dialect of a request, in one pass over
    its part table: a part is pretested once, on its root's code, under
    the goal without lan, and a dialect's cell keeps the survivors whose
    root code admits its lan value (`lans`, made once per table by
    :func:`_lans`).  After the first test the second is exact: lan is
    the only field it can newly empty."""
    category, goal = _goal_for(grammar, spec)
    content = _content(grammar, spec)
    # None while another thread builds the table; a row holds no table
    # in the making, so the wait ends
    while (parts := engine._parts(  # noqa: SLF001 - same-package friend
            grammar, category, tuple(sorted(content)),
            _particles(grammar).difference(content))) is None:
        time.sleep(0)
    schema, items = grammar.schema, tuple(
        item for item in goal.items() if item[0] != "lan")
    row = schema.code(FeatureStruct._of(items), UNBOUND)
    parts = [entry for entry in parts if not schema.clash(row, entry[1])]
    for dialect, code in lans or _lans(grammar):
        cell = FeatureStruct._of(tuple(sorted(
            items + (("lan", frozenset((dialect,))),))))
        yield dialect, realizations_from_finals(grammar, [
            (final, part.history) for part, root, final in parts
            if not schema.clash(code, root)], cell)


def _table(grammar, rows):
    """A grid of (row name, SemSpec) rows that leave lan open, one
    dialect per column: the one realization :func:`_row` finds (a
    cell's realizations all have its dialect's set, so they fold into
    one).  A grammar without `lan` has no columns, so no table."""
    check_lan(grammar, frozenset(grammar.dialects))
    lans, table = _lans(grammar), []
    for row, spec in rows:
        cells = []
        for dialect, reals in _row(grammar, spec, lans):
            if not reals:
                raise MissingCell(row, dialect)
            cells.append(" / ".join(map(" ".join, (reals[0].tokens,)
                                        + reals[0].alternatives)))
        table.append((row, cells))
    return table


def table_np(grammar: Grammar):
    """The noun-phrase determination grid."""
    return _table(grammar, [(row, SemSpec(args=(np_spec,)))
                            for row, np_spec in NP_ROWS])


def table_tma(grammar: Grammar):
    """The tense/aspect marking grid for the predicate DANCE."""
    return _table(grammar, [(row, SemSpec(pred="DANCE", tma=tma))
                            for row, tma in TMA_ROWS])


def golden_corpus():
    """All table rows as semantic specifications (unrestricted for lan)."""
    corpus = [SemSpec(args=(np_spec,)) for _, np_spec in NP_ROWS]
    corpus.extend(SemSpec(pred="DANCE", tma=tma) for _, tma in TMA_ROWS)
    return corpus


def format_table(grammar: Grammar, rows) -> str:
    lines = ["row\t" + "\t".join(grammar.dialects)]
    for row_name, cells in rows:
        lines.append(row_name + "\t" + "\t".join(cells))
    return "\n".join(lines) + "\n"
