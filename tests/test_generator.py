"""Generator behaviour: realization, fusion, merging, alternatives."""

import gc
import itertools
import sys
import threading
import weakref
from dataclasses import replace
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from creoletag import engine
from creoletag import generate as generate_module
from creoletag.creole import DIALECTS, golden_path, grammar_text
from creoletag.dsl import load_grammar
from creoletag.errors import InvalidSpec, NoRealization, UndeclaredAttribute
from creoletag.featstruct import FeatureStruct, Schema, Var, unify
from creoletag.generate import (ASPECTS, NUMBERS, TMA, TMA_ROWS, NPSpec,
                                SemSpec, _content, _goal_for, _particles,
                                _row, apply_fusion, format_table,
                                fuse_with_sources, generate, golden_corpus,
                                semspec_from_json, table_np, table_tma)
from creoletag.grammar import FusionRule, Grammar
from creoletag.specialize import project_language, specialize
from creoletag.trees import ANCHOR, Node


def tokens_of(reals):
    return [" ".join(r.tokens) for r in reals]


class TestFusion:
    def test_te_va_contracts(self, grammar):
        assert apply_fusion(["te", "va", "danse"], {"HT"},
                            grammar.fusion_rules) == ["ta", "danse"]

    def test_no_rule_fires_outside_haiti(self, grammar):
        assert apply_fusion(["té", "ka", "dansé"], {"MQ"},
                            grammar.fusion_rules) == ["té", "ka", "dansé"]

    def test_three_way_contraction(self, grammar):
        assert apply_fusion(["te", "va", "ap", "danse"], {"HT"},
                            grammar.fusion_rules) == ["ta", "vap", "danse"]

    def test_guard_requires_whole_set(self, grammar):
        # a rule fires only when its guard covers the full language set
        assert apply_fusion(["te", "ap", "danse"], {"HT", "GP"},
                            grammar.fusion_rules) == ["te", "ap", "danse"]

    def test_grammar_orders_rules_longest_first(self, grammar):
        """Construction sorts the rules stably, longest pattern first, so
        fusion only filters them: a grammar given them reversed fuses
        alike, and of two rules with one pattern the first still wins."""
        rules = grammar.fusion_rules
        extra = FusionRule(("te", "ap"), ("tè",), frozenset({"HT"}))
        reversed_ = Grammar(grammar.domains, grammar.trees, grammar.lexicon,
                            (extra,) + rules[::-1], grammar.metadata)
        assert reversed_.fusion_rules[0] == rules[0]
        assert reversed_.fusion_rules[1:3] == (extra, rules[1])
        assert apply_fusion(["te", "va", "ap", "danse"], {"HT"},
                            reversed_.fusion_rules) == ["ta", "vap", "danse"]
        assert apply_fusion(["te", "ap", "danse"], {"HT"},
                            reversed_.fusion_rules) == ["tè", "danse"]


def fused_by_reference(entries, lan_set, rules):
    """The fusion pass as it was before its fast path, kept as an
    oracle: every rule the guard admits is tried at every position."""
    applicable = [r for r in rules if r.lan is None or lan_set <= r.lan]
    out, i = [], 0
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


def _spellings():
    grammar = load_grammar(grammar_text())
    particles = sorted({variant.surface for lexeme in grammar.lexicon
                        if lexeme.id in _particles(grammar)
                        for variant in lexeme.variants if variant.surface})
    return grammar.fusion_rules, particles + ["danse", "moun", "tap", "x"]


FUSION_RULES, FUSION_TOKENS = _spellings()
# half the tokens drawn are a rule's, so most strings have a rule to fire
FUSION_TOKEN = st.sampled_from(sorted({
    token for rule in FUSION_RULES for token in rule.pattern})) | \
    st.sampled_from(FUSION_TOKENS)
LAN_SUBSETS = [frozenset(subset) for k in range(len(DIALECTS) + 1)
               for subset in itertools.combinations(DIALECTS, k)]


class TestFusionFastPath:
    """Fusion returns its input when no admitted rule's first token occurs
    in it, and tries only rules whose first token does: the same result
    as the full pass, payloads included, under every language set."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(FUSION_TOKEN,
                              st.none() | st.tuples(st.integers(0, 9))),
                    max_size=8))
    def test_fusion_equals_the_full_pass(self, entries):
        tokens = [token for token, _ in entries]
        unguarded = tuple(rule._replace(lan=None) for rule in FUSION_RULES)
        for rules in (FUSION_RULES, unguarded):
            for lan in LAN_SUBSETS:
                assert fuse_with_sources(entries, lan, rules) == \
                    fused_by_reference(entries, lan, rules)
                assert apply_fusion(tokens, lan, rules) == [
                    token for token, _ in fused_by_reference(
                        [(t, None) for t in tokens], lan, rules)]


class TestRecordRepr:
    def test_records_print_as_before(self, grammar):
        """A realization, its trace's steps and a finalized derivation
        print their fields by name, as they did as dataclasses."""
        real, = generate(grammar, SemSpec(pred="DANCE", tma=TMA(asp="imp"),
                                          lan=frozenset({"GF"})))
        assert repr(real) == (
            "Realization(tokens=('ka', 'dansé'), lan_set=frozenset({'GF'}), "
            "alternatives=(('dansé',),), trace=(Step(op='instantiate', "
            "tree='alpha-Pred', address=(), lexeme='DANCE', variant=1), "
            "Step(op='adjoin', tree='aux-Imperfective-general', address=(), "
            "lexeme='IMPF_KA', variant=0)), features=FS{asp:{imp}, cnd:{-}, "
            "lan:{GF}, pas:{-}, prx:{-}, psp:{-}})")
        dog, = generate(grammar, SemSpec(args=(NPSpec("DOG", spe=True),),
                                         lan=frozenset({"MQ"})))
        assert [repr(step) for step in dog.trace] == [
            "Step(op='instantiate', tree='alpha-NP-full', address=(), "
            "lexeme=None, variant=None)",
            "Step(op='substitute', tree='alpha-N', address=(0,), "
            "lexeme='DOG', variant=0)",
            "Step(op='adjoin', tree='aux-Spec-Art', address=(0,), "
            "lexeme='ART', variant=7)"]
        assert repr(engine.finalize(grammar, engine.replay(
            grammar, dog.trace))) == (
            "FinalizeResult(frontier=('chyen', 'an'), features=FS{dem:{-}, "
            "lan:{GF,HT,MQ}, nbr:{sg}, spe:{+}}, lexical=(('chyen', 'DOG', 0), "
            "('an', 'ART', 7)))")


class TestPredicateRealization:
    def test_mq_unaccomplished_past(self, grammar):
        reals = generate(grammar, SemSpec(
            pred="DANCE", tma=TMA(pas=True, asp="imp"), lan=frozenset(["MQ"])))
        assert tokens_of(reals) == ["té ka dansé"]

    def test_ht_unaccomplished_past_fuses(self, grammar):
        reals = generate(grammar, SemSpec(
            pred="DANCE", tma=TMA(pas=True, asp="imp"), lan=frozenset(["HT"])))
        assert tokens_of(reals) == ["tap danse"]

    def test_ht_irrealis_unaccomplished(self, grammar):
        reals = generate(grammar, SemSpec(
            pred="DANCE", tma=TMA(pas=True, psp=True, asp="imp"),
            lan=frozenset(["HT"])))
        assert tokens_of(reals) == ["ta vap danse"]

    def test_bare_predicate_merges_dialects(self, grammar):
        reals = generate(grammar, SemSpec(pred="DANCE"))
        assert [(t, tuple(sorted(r.lan_set)))
                for t, r in zip(tokens_of(reals), reals)] == [
            ("danse", ("HT",)),
            ("dansé", ("GF", "GP", "MQ")),
        ]

    def test_gf_optional_imperfective_particle(self, grammar):
        reals = generate(grammar, SemSpec(
            pred="DANCE", tma=TMA(asp="imp"), lan=frozenset(["GF"])))
        assert len(reals) == 1
        assert " ".join(reals[0].tokens) == "ka dansé"
        assert [" ".join(a) for a in reals[0].alternatives] == ["dansé"]

    def test_gf_near_future_doublet(self, grammar):
        reals = generate(grammar, SemSpec(
            pred="DANCE", tma=TMA(prx=True), lan=frozenset(["GF"])))
        assert len(reals) == 1
        assert " ".join(reals[0].tokens) == "k'alé dansé"
        assert [" ".join(a) for a in reals[0].alternatives] == ["kay dansé"]

    def test_conditional_split(self, grammar):
        mq = generate(grammar, SemSpec(pred="DANCE", tma=TMA(cnd=True),
                                       lan=frozenset(["MQ"])))
        assert tokens_of(mq) == ["sé dansé"]
        ht = generate(grammar, SemSpec(pred="DANCE", tma=TMA(cnd=True),
                                       lan=frozenset(["HT"])))
        assert tokens_of(ht) == ["ta danse"]
        gp = generate(grammar, SemSpec(pred="DANCE", tma=TMA(cnd=True),
                                       lan=frozenset(["GP"])))
        assert tokens_of(gp) == ["té ké dansé"]

    def test_tma_cell_derives_each_shared_prefix_once(self, fresh_grammar,
                                                      engine_calls):
        # a walk that re-derives the prefixes slot plans share costs this
        # cell 648 instantiations and 583 adjunctions
        reals = generate(fresh_grammar, SemSpec(
            pred="DANCE", tma=TMA(pas=True, psp=True, asp="imp"),
            lan=frozenset(["HT"])))
        assert tokens_of(reals) == ["ta vap danse"]
        assert engine_calls["instantiate"] <= 17
        assert engine_calls["adjoin"] <= 167

    def test_tma_table_derives_once(self, fresh_grammar, engine_calls):
        # every row is DANCE and derivation reads neither lan nor TMA, so
        # the 48 cells share one derivation run (80 completed derivations
        # when each cell derives its own)
        assert len(table_tma(fresh_grammar)) == 12
        assert engine_calls["_final"] <= 30
        assert engine_calls["instantiate"] <= 17
        assert engine_calls["adjoin"] <= 167


class TestNounPhraseRealization:
    def test_gf_plural_demonstrative(self, grammar):
        reals = generate(grammar, SemSpec(
            args=(NPSpec("PERSON", nbr="pl", spe=True, dem=True),),
            lan=frozenset(["GF"])))
        assert tokens_of(reals) == ["sa moun yan"]

    def test_bird_four_ways(self, grammar):
        reals = generate(grammar, SemSpec(
            args=(NPSpec("BIRD", nbr="sg", spe=True),)))
        assert [(t, tuple(sorted(r.lan_set)))
                for t, r in zip(tokens_of(reals), reals)] == [
            ("zwazo a", ("HT",)),
            ("zozyo la", ("GP",)),
            ("zwézo a", ("MQ",)),
            ("zozo a", ("GF",)),
        ]

    def test_shared_table_article_merges(self, grammar):
        reals = generate(grammar, SemSpec(
            args=(NPSpec("TABLE", nbr="sg", spe=True),)))
        assert [(t, tuple(sorted(r.lan_set)))
                for t, r in zip(tokens_of(reals), reals)] == [
            ("tab la", ("GP", "HT", "MQ")),
            ("tab a", ("GF",)),
        ]

    def test_merging_soundness(self, grammar):
        """Re-running with lan pinned to each member of a merged set
        reproduces the same token string."""
        spec = SemSpec(args=(NPSpec("TABLE", nbr="pl", spe=True),))
        for real in generate(grammar, spec):
            for dialect in real.lan_set:
                again = generate(grammar, SemSpec(
                    args=spec.args, lan=frozenset([dialect])))
                assert real.tokens in [r.tokens for r in again]

    def test_np_cell_derives_each_shared_prefix_once(self, fresh_grammar,
                                                     engine_calls):
        # 22 plans each restarting from the bare NP tree cost this cell
        # 22 substitutions, 161 instantiations and 120 adjunctions; a goal
        # checked after the search cost 38 completed derivations, 19 of
        # them noun parts
        reals = generate(fresh_grammar, SemSpec(
            args=(NPSpec("TABLE", nbr="pl", spe=True, dem=True),),
            lan=frozenset(["GP"])))
        assert tokens_of(reals) == ["sé tab lasa"]
        assert engine_calls["substitute"] <= 2
        assert engine_calls["instantiate"] <= 41
        assert engine_calls["adjoin"] <= 108
        assert engine_calls["_final"] <= 20

    def test_np_table_derives_each_row_once(self, fresh_grammar, engine_calls):
        # the 4 dialect columns of a row share its derivations (1 848
        # substitutions when each cell derives its own), and so do the
        # rows of one noun (42 substitutions in 15 searches when each
        # row derives its own); a finished noun is derived once, for both
        # NP trees, and substituted into each (14 substitutions and 144
        # adjunctions when each NP tree derives its own nouns); a row
        # reads the part table, so the searches are one per NP row key
        # and one per noun table
        assert len(table_np(fresh_grammar)) == 15
        assert engine_calls["_derive"] == 8
        assert engine_calls["substitute"] <= 83
        assert engine_calls["adjoin"] <= 84

    def test_sentence_with_subject(self, grammar):
        reals = generate(grammar, SemSpec(
            pred="DANCE", args=(NPSpec("TABLE", nbr="pl", spe=True),),
            tma=TMA(pas=True), lan=frozenset(["GP"])))
        assert tokens_of(reals) == ["sé tab la té dansé"]

    @pytest.mark.parametrize("lan", [None] + [
        frozenset(("MQ",) + others) for k in (1, 2, 3)
        for others in itertools.combinations(("HT", "GP", "GF"), k)],
        ids=lambda lan: "any" if lan is None else "-".join(sorted(lan)))
    def test_conditional_sentence_keeps_mq_form(self, grammar, lan):
        # the syncretic conditional is not Martinican, however many other
        # dialects share the request
        reals = generate(grammar, SemSpec(
            pred="DANCE", tma=TMA(cnd=True), lan=lan,
            args=(NPSpec("BIRD", nbr="pl", spe=True),)))
        mq = {" ".join(tokens) for r in reals if "MQ" in r.lan_set
              for tokens in (r.tokens,) + r.alternatives}
        assert mq == {"sé zwézo a sé dansé"}
        assert not any("té ké" in form for form in mq)


def outcome(grammar, spec):
    """What generate gives, trace aside (it names trees), or its error."""
    try:
        reals = generate(grammar, spec)
    except NoRealization:
        return "NoRealization"
    return [(r.tokens, r.lan_set, r.alternatives, r.features) for r in reals]


class TestGrammarDriven:
    def test_tree_names_are_not_hard_coded(self, grammar):
        renamed = load_grammar(grammar_text().replace("(tree ", "(tree t-"))
        assert renamed.has_tree("t-alpha-N")
        assert not renamed.has_tree("alpha-N")
        for name, table in (("np", table_np), ("tma", table_tma)):
            assert format_table(renamed, table(renamed)) == \
                golden_path(name).read_text(encoding="utf-8")
        spec = SemSpec(pred="DANCE", args=(NPSpec("BIRD", nbr="pl", spe=True),),
                       tma=TMA(pas=True, asp="imp"))
        assert outcome(renamed, spec) == outcome(grammar, spec)
        assert outcome(grammar, spec) != "NoRealization"

    def test_instances_built_once_per_grammar(self, engine_calls):
        own = load_grammar(grammar_text())
        spec = SemSpec(pred="DANCE", args=(NPSpec("BIRD", nbr="pl", spe=True),),
                       tma=TMA(pas=True, asp="imp"))
        first = outcome(own, spec)
        built = engine_calls["instantiate"]
        assert built > 0
        assert outcome(own, spec) == first
        assert engine_calls["instantiate"] == built
        instance = next(i for i in own._instances.values()
                        if isinstance(i, engine.DerivedTree))
        # the anchoring index, the auxiliary instances with their codes,
        # the part tables and the copies tagged per frame go with the
        # grammar
        anchoring = next(iter(own._anchorings.values()))[0]
        coded = next(c for c in own._instances.values()
                     if isinstance(c, tuple))
        parts = [entry[0] for key, table in own._parts.items()
                 if isinstance(key, tuple) and table for entry in table]
        holders = [i[0] if isinstance(i, tuple) else i
                   for i in own._instances.values() if i is not None] + parts
        tagged = next(cell for tree in holders
                      for root, _ in tree.frames.values()
                      for _, node in root.walk()
                      for plane in (node.top, node.bottom)
                      for _, cell in plane.items()
                      if isinstance(cell, Var) and ";" in cell.name)
        refs = [weakref.ref(kept) for kept in (own, instance, anchoring[0],
                                               coded[0], parts[0], tagged)]
        del own, instance, anchoring, coded, parts, holders, tagged
        gc.collect()
        assert [ref() for ref in refs] == [None] * 6

    @pytest.mark.parametrize("name", ["shipped", "lan-free", "HT"])
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_warm_grammar_generates_as_a_fresh_one(self, warmed, name, data):
        """Finished parts kept on a grammar change no realization, trace
        or features: a request sequence on one grammar gives what each
        request gives on the same grammar with every memo empty."""
        grammar = warmed[name]
        lan = st.none()
        if "lan" in grammar.schema:
            lan |= st.sets(st.sampled_from(DIALECTS), min_size=1)
        specs = st.builds(
            lambda noun, nbr, determination, complement, pred, tma, lan:
            SemSpec(pred=pred, tma=tma if pred else TMA(), lan=lan,
                    args=(NPSpec(noun, nbr, *determination, complement),)),
            st.sampled_from(NOUNS), st.sampled_from(NUMBERS),
            st.sampled_from(DETERMINATIONS),
            st.sampled_from(COMPLEMENTS), st.sampled_from((None, "DANCE")),
            st.sampled_from(BUNDLES), lan)
        for spec in data.draw(st.lists(specs, min_size=1, max_size=3)):
            fresh = Grammar(grammar.domains, grammar.trees, grammar.lexicon,
                            grammar.fusion_rules, grammar.metadata)
            assert realizations(grammar, spec) == realizations(fresh, spec)


@pytest.fixture(scope="module")
def warmed():
    """One grammar of each kind whose memos every example adds to."""
    shipped = load_grammar(grammar_text())
    return {"shipped": shipped, "lan-free": project_language(shipped),
            "HT": specialize(shipped, "HT")}


def realizations(grammar, spec):
    """What generate gives, traces included, or its error."""
    try:
        return generate(grammar, spec)
    except NoRealization:
        return "NoRealization"


def _bundles():
    out = []
    for pas, psp, prx, cnd in itertools.product((False, True), repeat=4):
        for asp in ASPECTS:
            try:
                out.append(TMA(pas=pas, psp=psp, prx=prx, cnd=cnd, asp=asp))
            except InvalidSpec:
                continue
    return out


BUNDLES = _bundles()
NOUNS = ("PERSON", "TABLE", "DOG", "BIRD")
DETERMINATIONS = ((False, False), (True, False), (True, True))  # spe, dem
COMPLEMENTS = (None, "SAINT-THOMAS", "SAINT-LAURENT")
# every noun phrase and every TMA bundle a table row could ask for
SPACE = [SemSpec(args=(NPSpec(noun, nbr, *determination, complement),))
         for noun in NOUNS for nbr in NUMBERS
         for determination in DETERMINATIONS for complement in COMPLEMENTS] + \
    [SemSpec(pred="DANCE", tma=tma) for tma in BUNDLES]


class TestTableLookup:
    """A paradigm row is a lookup into the grammar's part table: a warm
    table makes no engine operation, the part table holds what a search
    under the empty goal finds, and a cell is what the request for it
    gives, over the whole spec space."""

    @pytest.mark.parametrize("table", [table_np, table_tma])
    def test_warm_table_makes_no_engine_operation(
            self, fresh_grammar, engine_calls, monkeypatch, table):
        # a warm table that searches again repeats 83 substitutions and
        # 83 finalizations (NP), or 37 adjunctions and 30 finalizations
        # (TMA), and walks each tree it builds
        first = table(fresh_grammar)
        built = dict(engine_calls)
        walks = [0]
        real = Node.walk

        def walk(node, address=()):
            walks[0] += not address
            return real(node, address)

        monkeypatch.setattr(Node, "walk", walk)
        assert table(fresh_grammar) == first
        assert engine_calls == built
        assert walks == [0]

    def test_part_table_holds_the_goal_free_finals(self):
        grammar = load_grammar(grammar_text())
        for _ in range(2):  # fresh, then warm
            searched = set()
            for spec in SPACE:
                category = _goal_for(grammar, spec)[0]
                content = _content(grammar, spec)
                if (category, content) in searched:
                    continue
                searched.add((category, content))
                kept = {}
                for part, _, final in engine._parts(
                        grammar, category, tuple(sorted(content)),
                        _particles(grammar).difference(content)):
                    assert engine.finalize(grammar, part) == final
                    key = final.frontier, final.features
                    if key not in kept or \
                            part.trace_key() < kept[key][1].trace_key():
                        kept[key] = final, part
                found = sorted(((final, part.history)
                                for final, part in kept.values()),
                               key=lambda item: [s.key() for s in item[1]])
                oracle = engine.enumerate_derivations(
                    grammar, category, FeatureStruct(),
                    lexemes=_particles(grammar).union(content),
                    content=content)
                assert found == [(final, derived.history)
                                 for derived, final in oracle], content
            assert len(searched) == 13

    def test_cells_equal_requests(self):
        grammar = load_grammar(grammar_text())
        key = lambda reals: [(r.tokens, r.lan_set, r.alternatives)
                             for r in reals]
        assert len(SPACE) == 100
        for _ in range(2):  # fresh, then warm
            empty = 0
            for spec in SPACE:
                cells = 0
                for dialect, reals in _row(grammar, spec):
                    request = realizations(
                        grammar, replace(spec, lan=frozenset([dialect])))
                    if request == "NoRealization":
                        request, empty = [], empty + 1
                    assert key(reals) == key(request), (spec, dialect)
                    cells += 1
                assert cells == len(DIALECTS)
            assert empty == 35

    def test_no_part_table_for_a_share_the_label_cannot_anchor(self):
        # an S request's NP site used to build NP and N tables for DANCE,
        # and its Pred site, after an NP without the complement, a Pred
        # table for the place name: each searches a whole space in vain
        anchors = {"N": {"N", "Nprop"}, "NP": {"N", "Nprop"}, "Pred": {"V"}}
        shipped = load_grammar(grammar_text())
        for grammar in (shipped, specialize(shipped, "HT")):
            for noun in NOUNS:
                for complement in COMPLEMENTS:
                    np = NPSpec(noun, "pl", True, False, complement)
                    for spec in (SemSpec(args=(np,)), SemSpec(
                            pred="DANCE", args=(np,), tma=TMA(pas=True))):
                        assert realizations(grammar, spec) != "NoRealization"
            keys = [key for key in grammar._parts if isinstance(key, tuple)]
            assert {label for label, *_ in keys} == {"N", "NP", "Pred"}
            for label, share, *_ in keys:
                assert {grammar.lexeme(lexeme).category
                        for lexeme in share} <= anchors[label], (label, share)


def test_warm_table_codes_each_row_and_dialect_once(fresh_grammar,
                                                    monkeypatch):
    # one code per row and one per dialect; a code per cell makes 60
    table_tma(fresh_grammar)
    coded = [0]
    real = Schema.code

    def code(schema, fs, env):
        coded[0] += 1
        return real(schema, fs, env)

    monkeypatch.setattr(Schema, "code", code)
    table_tma(fresh_grammar)
    assert coded[0] <= len(TMA_ROWS) + len(DIALECTS)


def without_pretest(patch, grammar):
    """Turn off, on `grammar` alone, the clash test on codes that every
    pretest of a search and of a table row reads."""
    patch.setattr(grammar.schema, "clash", lambda a, b: False)


@pytest.fixture(scope="module")
def unpruned():
    """call(grammar, *args) with the clash pretest turned off, on a
    grammar of its own, so no instance the pruned searches built serves
    it.  Each unpruned search runs once per (label, goal, content
    lexemes): generate searches with a constant particle set.  A table
    row's pretest is its goal check, so an unpruned row keeps the finals
    that unify with its cell's goal."""
    own = load_grammar(grammar_text())
    searches = {}
    search = engine.enumerate_derivations
    assemble = generate_module.realizations_from_finals

    def fitting(grammar, finals, goal):
        return assemble(grammar, [(final, trace) for final, trace in finals
                                  if unify(final.features, goal) is not None],
                        goal)

    def cached(grammar, label, goal, *args, **kwargs):
        key = (label, goal, kwargs["content"])
        if key not in searches:
            searches[key] = search(grammar, label, goal, *args, **kwargs)
        return searches[key]

    def run(call, *args):
        with pytest.MonkeyPatch.context() as patch:
            without_pretest(patch, own)
            patch.setattr(engine, "enumerate_derivations", cached)
            patch.setattr(generate_module, "realizations_from_finals", fitting)
            return call(own, *args)
    return run


class TestPruningSoundness:
    """The search skips anchorings, adjunctions and parts that the clash test
    shows must fail; skipping them may not change what generate gives."""

    def test_the_pretest_is_off(self, engine_calls, monkeypatch):
        # without it, a search tries the adjunctions the pretest skips
        pruned, bare = (load_grammar(grammar_text()) for _ in range(2))
        without_pretest(monkeypatch, bare)
        tried = []
        for own in (pruned, bare):
            engine_calls["adjoin"] = 0
            generate(own, SemSpec(pred="DANCE", tma=TMA(pas=True, asp="imp")))
            tried.append(engine_calls["adjoin"])
        assert tried[0] < tried[1]

    def test_only_stacks_that_can_end_under_the_goal(self, fresh_grammar,
                                                     engine_calls):
        # a Pred request's TMA values meet its particle stack's last root
        # bottom only when the root collapses; trying every stack costs
        # each request 37 adjunctions, 1 036 over the 28 bundles, and
        # reading the fields a particle threads from foot to root as
        # full costs TMA(psp=True) 8, and 239 over the bundles
        for tma, most in ((TMA(), 0), (TMA(psp=True), 2)):
            engine_calls["adjoin"] = 0
            generate(fresh_grammar, SemSpec(pred="DANCE", tma=tma))
            assert engine_calls["adjoin"] <= most, tma
        engine_calls["adjoin"] = 0
        for tma in BUNDLES:
            realizations(fresh_grammar, SemSpec(pred="DANCE", tma=tma))
        assert engine_calls["adjoin"] <= 73

    def test_every_pred_adjunction_lies_on_a_derivation(self, monkeypatch):
        # reading the threaded fields as full, 166 of the 239 adjunctions
        # over the bundles with lan open lay on none
        tried, traces = [], []
        adjoin, search = engine.adjoin, engine.enumerate_derivations

        def recorded_adjoin(grammar, host, address, aux):
            tried.append(host.history + engine._steps(
                "adjoin", tuple(address), aux))
            return adjoin(grammar, host, address, aux)

        def recorded_search(*args, **kwargs):
            pairs = search(*args, **kwargs)
            traces.extend(derived.history for derived, _ in pairs)
            return pairs

        monkeypatch.setattr(engine, "adjoin", recorded_adjoin)
        monkeypatch.setattr(engine, "enumerate_derivations", recorded_search)
        grammar = load_grammar(grammar_text())
        for lan, tma in itertools.product((None,) + DIALECTS, BUNDLES):
            del tried[:], traces[:]
            realizations(grammar, SemSpec(pred="DANCE", tma=tma,
                                          lan=lan and {lan}))
            for prefix in tried:
                assert any(trace[:len(prefix)] == prefix
                           for trace in traces), (lan, tma, prefix)

    def test_no_adjunction_anchors_a_used_up_content_lexeme(self,
                                                           monkeypatch):
        # adjoining first and cutting the state after it cost 473
        # adjunctions, 14 of them aux-N-Comp over a host that anchors
        # its complement already
        nps = [spec.args[0] for spec in SPACE if spec.args]
        requests = [SemSpec(args=(np,)) for np in nps] + [
            SemSpec(pred="DANCE", tma=tma, args=(np,))
            for np in nps[:20] for tma in BUNDLES[:3]]
        grammar = load_grammar(grammar_text())
        adjoin, made, used_up, listed = engine.adjoin, [0], [], []

        def checked(own, host, address, aux):
            made[0] += 1
            lexeme = aux.history[0].lexeme
            anchored = [node.lexeme for _, node in host.nodes
                        if node.kind == ANCHOR].count(lexeme)
            if lexeme in listed and anchored >= listed.count(lexeme):
                used_up.append((listed[:], aux.history[0].tree, lexeme))
            return adjoin(own, host, address, aux)

        monkeypatch.setattr(engine, "adjoin", checked)
        assert len(requests) == 132
        for spec in requests:
            listed[:] = _content(grammar, spec)
            realizations(grammar, spec)
        assert used_up == []
        assert made[0] <= 459

    @pytest.mark.parametrize("name, table", [("np", table_np),
                                             ("tma", table_tma)])
    def test_tables(self, unpruned, name, table):
        text = unpruned(lambda own: format_table(own, table(own)))
        assert text == golden_path(name).read_text(encoding="utf-8")

    def test_golden_corpus(self, grammar, unpruned):
        for spec in golden_corpus():
            assert outcome(grammar, spec) == unpruned(outcome, spec), spec

    def test_every_noun_and_complement_at_pl_dem(self, grammar, unpruned):
        for noun, complement in itertools.product(NOUNS, COMPLEMENTS):
            spec = SemSpec(args=(NPSpec(noun, nbr="pl", dem=True,
                                        complement=complement),))
            assert outcome(grammar, spec) == unpruned(outcome, spec), spec

    def test_every_tma_bundle(self, grammar, unpruned):
        assert len(BUNDLES) == 28
        for tma in BUNDLES:
            spec = SemSpec(pred="DANCE", tma=tma)
            assert outcome(grammar, spec) == unpruned(outcome, spec), spec

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(noun=st.sampled_from(NOUNS), nbr=st.sampled_from(NUMBERS),
           determination=st.sampled_from(((False, False), (True, False),
                                          (True, True))),
           complement=st.sampled_from(COMPLEMENTS),
           tma=st.sampled_from(BUNDLES), pred=st.sampled_from((None, "DANCE")),
           lan=st.one_of(st.none(), st.sets(st.sampled_from(DIALECTS),
                                            min_size=1)))
    def test_property(self, grammar, unpruned, noun, nbr, determination,
                      complement, tma, pred, lan):
        spe, dem = determination
        spec = SemSpec(pred=pred, tma=tma if pred else TMA(), lan=lan, args=(
            NPSpec(noun, nbr=nbr, spe=spe, dem=dem, complement=complement),))
        assert outcome(grammar, spec) == unpruned(outcome, spec)


class TestSharedGrammar:
    """One grammar may serve requests from several threads at once: its
    memos are stored whole, so each thread gets what one thread alone
    gets."""

    @staticmethod
    def work(grammar, reverse):
        nps = [spec.args[0] for spec in SPACE if spec.args]
        sentences = [SemSpec(pred="DANCE", tma=BUNDLES[2 * i],
                             args=(nps[6 * i],)) for i in range(12)]
        calls = [partial(realizations, grammar, spec)
                 for spec in golden_corpus() + sentences] + [
            partial(table_tma, grammar), partial(table_np, grammar)]
        outputs = [call() for call in (calls[::-1] if reverse else calls)]
        return outputs[::-1] if reverse else outputs

    def test_four_threads_share_one_fresh_grammar(self):
        # a table row read while another thread built its part table
        # took the marker of a table in the making for the table
        want = self.work(load_grammar(grammar_text()), False)
        shared = load_grammar(grammar_text())
        got = {}

        def run(index):
            try:
                got[index] = self.work(shared, index % 2 == 1)
            except Exception as error:  # noqa: BLE001 - compared below
                got[index] = error

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as it can
        try:
            threads = [threading.Thread(target=run, args=(index,))
                       for index in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == dict.fromkeys(range(4), want)

    def test_a_table_removed_while_it_is_built(self, monkeypatch):
        # two threads may build one part table at once: the first to
        # finish takes the marker of a table in the making away while
        # the other still searches, which then raised KeyError
        spec = SemSpec(args=(NPSpec("PERSON", nbr="pl", spe=True),))
        want = realizations(load_grammar(grammar_text()), spec)
        grammar = load_grammar(grammar_text())
        derive, removed = engine._derive, []

        def derive_then_remove(own, label, goal, lexemes, targets, content):
            yield from derive(own, label, goal, lexemes, targets, content)
            making = [key for key, table in own._parts.items()
                      if table is None and key[:2] == (label, content)]
            if making and not removed:
                removed.append(own._parts.pop(making[0]))

        monkeypatch.setattr(engine, "_derive", derive_then_remove)
        assert realizations(grammar, spec) == want
        assert removed == [None]
        assert None not in grammar._parts.values()


def token_set(grammar, spec):
    try:
        reals = generate(grammar, spec)
    except NoRealization:
        return frozenset()
    return frozenset(tokens for r in reals
                     for tokens in (r.tokens,) + r.alternatives)


@pytest.fixture(scope="module")
def specialized(grammar):
    return {dialect: specialize(grammar, dialect) for dialect in DIALECTS}


class TestLanUnion:
    """The paper's claim: leaving lan free models the multidialect
    system, so a request under a set of dialects yields exactly what
    those dialects' own grammars yield together.  The explicit example
    is a conditional sentence that once came back with a syncretic
    Martinican form."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @example(noun="BIRD", nbr="pl", determination=(True, False),
             complement=None, tma=TMA(cnd=True),
             lans=({"HT"}, {"MQ"}, {"GP", "MQ"}))
    @given(noun=st.sampled_from(NOUNS), nbr=st.sampled_from(NUMBERS),
           determination=st.sampled_from(((False, False), (True, False),
                                          (True, True))),
           complement=st.sampled_from(COMPLEMENTS),
           tma=st.sampled_from(BUNDLES), lans=st.tuples(*[st.sets(
               st.sampled_from(DIALECTS), min_size=1)] * 3))
    def test_lan_subset_is_union_of_dialects(self, grammar, specialized,
                                              noun, nbr, determination,
                                              complement, tma, lans):
        spe, dem = determination
        args = (NPSpec(noun, nbr=nbr, spe=spe, dem=dem,
                       complement=complement),)
        specs = (SemSpec(args=args), SemSpec(pred="DANCE", tma=tma),
                 SemSpec(pred="DANCE", tma=tma, args=args))
        for spec, lan in zip(specs, lans):
            union = frozenset().union(*(token_set(specialized[dialect], spec)
                                        for dialect in lan))
            assert token_set(grammar, replace(spec, lan=frozenset(lan))) == \
                union, (spec, lan)


class TestExclusivity:
    HT_FORBIDDEN = {"ka", "ké", "té", "sé", "kay"}
    GP_FORBIDDEN = {"ap", "va", "pral", "tap", "ta", "vap"}

    def _sweep(self, grammar, dialect):
        from creoletag.generate import golden_corpus
        for spec in golden_corpus():
            try:
                yield from generate(grammar,
                                    replace(spec, lan=frozenset([dialect])))
            except NoRealization:
                continue

    def test_haitian_never_uses_shared_particles(self, grammar):
        for real in self._sweep(grammar, "HT"):
            assert not (set(real.tokens) & self.HT_FORBIDDEN)

    def test_guadeloupean_never_uses_haitian_forms(self, grammar):
        for real in self._sweep(grammar, "GP"):
            assert not (set(real.tokens) & self.GP_FORBIDDEN)


class TestSpecValidation:
    def test_empty_json(self):
        with pytest.raises(InvalidSpec):
            semspec_from_json({})

    def test_prx_excludes_psp(self):
        with pytest.raises(InvalidSpec):
            TMA(prx=True, psp=True)

    def test_prx_excludes_cnd(self):
        # the grammar's conditional trees, the syncretic one built on the
        # prospective, all exclude the near future
        with pytest.raises(InvalidSpec, match="cnd"):
            TMA(prx=True, cnd=True)

    def test_cnd_excludes_explicit_past(self):
        with pytest.raises(InvalidSpec):
            TMA(cnd=True, pas=True)

    def test_tma_without_a_predicate_is_rejected(self):
        # it was dropped: the request generated a bare noun phrase
        with pytest.raises(InvalidSpec, match="a tma needs a pred"):
            SemSpec(args=(NPSpec("PERSON"),), tma=TMA(pas=True))
        assert SemSpec(args=(NPSpec("PERSON"),), tma=TMA()).pred is None

    @pytest.mark.parametrize("fields, message", [
        ({"args": ("PERSON",)}, "args must be NPSpecs"),
        ({"pred": "DANCE", "tma": {"pas": True}}, "tma must be a TMA"),
        ({"args": (NPSpec("PERSON"),), "lan": "HT"}, "lan must be a set"),
    ], ids=["args", "tma", "lan"])
    def test_field_types_are_checked(self, fields, message):
        # they failed in generate with an AttributeError, and a string
        # lan was split into its letters
        with pytest.raises(InvalidSpec, match=message):
            SemSpec(**fields)

    def test_dem_normalizes_spe(self):
        assert NPSpec("PERSON", dem=True).spe is True

    def test_two_arguments_rejected(self):
        with pytest.raises(InvalidSpec):
            SemSpec(pred="DANCE",
                    args=(NPSpec("PERSON"), NPSpec("TABLE")))

    def test_unknown_lexeme(self, grammar):
        with pytest.raises(InvalidSpec):
            generate(grammar, SemSpec(args=(NPSpec("CAT"),)))

    def test_unknown_dialect(self, grammar):
        with pytest.raises(InvalidSpec):
            generate(grammar, SemSpec(args=(NPSpec("PERSON"),),
                                      lan=frozenset(["XX"])))

    def test_missing_cell(self, grammar):
        from creoletag.errors import MissingCell
        from creoletag.generate import _table
        spec = SemSpec(pred="DANCE", tma=TMA(psp=True, asp="frq"))
        with pytest.raises(MissingCell) as err:  # HT is the first column
            _table(grammar, [("imaginary-row", spec)])
        assert err.value.row == "imaginary-row"
        assert err.value.dialect == "HT"

    def test_json_round(self):
        spec = semspec_from_json({
            "pred": "DANCE",
            "args": [{"lexeme": "PERSON", "nbr": "pl", "spe": True}],
            "tma": {"pas": True, "asp": "imp"},
            "lan": ["MQ"],
        })
        assert spec.pred == "DANCE"
        assert spec.args[0].nbr == "pl"
        assert spec.tma.pas and spec.tma.asp == "imp"
        assert spec.lan == frozenset(["MQ"])

    def test_json_flags_must_be_booleans(self):
        # bool("false") is true: this once asked for the specific NP
        with pytest.raises(InvalidSpec, match="spe"):
            semspec_from_json({"args": [{"lexeme": "TABLE", "spe": "false"}]})
        with pytest.raises(InvalidSpec, match="dem"):
            semspec_from_json({"args": [{"lexeme": "TABLE", "dem": 1}]})
        with pytest.raises(InvalidSpec, match="pas"):
            semspec_from_json({"pred": "DANCE", "tma": {"pas": "true"}})

    def test_json_dem_with_spe_false_is_rejected(self):
        # once read as spe: true, four demonstratives for a contradiction
        with pytest.raises(InvalidSpec, match="dem implies spe"):
            semspec_from_json({"args": [{"lexeme": "BIRD", "dem": True,
                                         "spe": False}]})
        spec = semspec_from_json({"args": [{"lexeme": "BIRD", "dem": True}]})
        assert spec.args[0].spe

    def test_json_lan_must_be_a_list(self):
        # a string once became its letters: "HT" -> {H, T}
        with pytest.raises(InvalidSpec, match="lan"):
            semspec_from_json({"pred": "DANCE", "lan": "HT"})
        with pytest.raises(InvalidSpec, match="lan"):
            semspec_from_json({"pred": "DANCE", "lan": ["HT", 7]})

    def test_json_lan_must_not_be_empty(self):
        # an empty list once meant every dialect
        with pytest.raises(InvalidSpec, match="lan"):
            semspec_from_json({"pred": "DANCE", "lan": []})

    def test_json_nbr_and_asp_must_be_strings(self):
        with pytest.raises(InvalidSpec, match="nbr must be a str"):
            semspec_from_json({"args": [{"lexeme": "TABLE", "nbr": 2}]})
        with pytest.raises(InvalidSpec, match="asp must be a str"):
            semspec_from_json({"pred": "DANCE", "tma": {"asp": None}})


# declares lan and nbr only: every goal generate builds names spe, dem or
# the TMA attributes, which this grammar lacks
UNDECLARED_GOALS = """
(domain lan (HT GP))
(domain nbr (sg pl))
(tree alpha-NP (class initial)
  (node NP (kind internal)
    (children (node N (kind anchor) (bottom (lan $L))))))
(lex DOG (cat N) (variant "chen" (lan HT GP)))
"""


class TestEntryChecks:
    """Goals are checked against the schema where they enter; an
    undeclared attribute never reads as the full domain."""

    def test_undeclared_attribute(self, grammar):
        goal = FeatureStruct({"gen": frozenset(["m"])})
        with pytest.raises(UndeclaredAttribute):
            engine.enumerate_derivations(grammar, "NP", goal)

    @pytest.mark.parametrize("spec", [
        SemSpec(args=(NPSpec("DOG"),)),
        SemSpec(pred="DOG"),
        SemSpec(pred="DOG", args=(NPSpec("DOG"),)),
    ], ids=["NP", "Pred", "S"])
    def test_generate_goal_outside_the_schema(self, spec):
        grammar = load_grammar(UNDECLARED_GOALS)
        with pytest.raises(UndeclaredAttribute):
            generate(grammar, spec)
