"""Dialect specialization: projection, erasure, equivalence."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creoletag import specialize as specialize_module
from creoletag.dsl import _TOKEN, serialize
from creoletag.errors import InvalidSpec
from creoletag.generate import (NPSpec, SemSpec, TMA, generate, table_np,
                                table_tma)
from creoletag.grammar import Grammar, validate
from creoletag.specialize import (equivalence_check, project_language,
                                  specialize, specialize_with_report)
from dialect_claim import (SPACE, generated, goal_of, perturbed,
                           recognition_mismatches)

DIALECTS = ("HT", "GP", "MQ", "GF")


def unquoted_atoms(text):
    return [tok for tok in _TOKEN.findall(text)
            if tok and tok[0] not in '()"']


class TestSpecialize:
    def test_gp_drops_trees(self, grammar):
        specialized, report = specialize_with_report(grammar, "GP")
        # the Haitian/Guianese machinery is gone
        for name in ("aux-Dem-ht", "aux-Dem-gf", "aux-Plur-ht",
                     "aux-Plur-gf", "aux-Progressive-ht"):
            assert not specialized.has_tree(name)
        # frozen full census of what GP specialisation removes
        assert report.dropped_trees == [
            "aux-Conditional-mq", "aux-Dem-gf", "aux-Dem-ht",
            "aux-Imperfective-ht-bound", "aux-Imperfective-zero",
            "aux-Plur-gf", "aux-Plur-ht", "aux-Progressive-ht"]
        assert specialized.fusion_rules == ()

    def test_mq_drops_the_syncretic_conditional(self, grammar):
        _, report = specialize_with_report(grammar, "MQ")
        assert "aux-Conditional-syncretic" in report.dropped_trees
        for dialect in ("HT", "GP", "GF"):
            assert specialize(grammar, dialect).has_tree(
                "aux-Conditional-syncretic")

    def test_ht_keeps_fusion_unguarded(self, grammar):
        specialized = specialize(grammar, "HT")
        assert len(specialized.fusion_rules) == 4
        assert all(rule.lan is None for rule in specialized.fusion_rules)

    def test_ht_bird_single_variant(self, grammar):
        specialized = specialize(grammar, "HT")
        assert [v.surface for v in specialized.lexeme("BIRD").variants] == \
            ["zwazo"]

    def test_no_language_attribute_left(self, grammar):
        for dialect in DIALECTS:
            text = serialize(specialize(grammar, dialect))
            assert "lan" not in unquoted_atoms(text)

    def test_specialized_grammars_validate(self, grammar):
        for dialect in DIALECTS:
            assert validate(specialize(grammar, dialect)) == []

    def test_projection_instantiates_nothing(self, fresh_grammar,
                                             engine_calls):
        # anchorability is decided by unification, not by the engine
        for dialect in DIALECTS:
            specialize(fresh_grammar, dialect)
        project_language(fresh_grammar)
        assert engine_calls["instantiate"] == 0

    def test_idempotence_by_vacuity(self, grammar):
        once = specialize(grammar, "MQ")
        assert specialize(once, "MQ") == once

    def test_monotone_shrinkage(self, grammar):
        variants = sum(len(l.variants) for l in grammar.lexicon)
        for dialect in DIALECTS:
            specialized = specialize(grammar, dialect)
            assert len(specialized.trees) <= len(grammar.trees)
            assert sum(len(l.variants) for l in specialized.lexicon) <= variants

    def test_unknown_dialect(self, grammar):
        with pytest.raises(InvalidSpec):
            specialize(grammar, "XX")

    def test_empty_grammar_reported(self):
        from creoletag.dsl import load_grammar
        from creoletag.errors import EmptyGrammar
        mini = load_grammar("""
        (domain lan (HT GP))
        (tree t (class initial)
          (node N (kind internal)
            (children (node N (kind anchor) (bottom (lan $L))))))
        (lex X (cat N) (variant "x" (lan HT)))
        """)
        with pytest.raises(EmptyGrammar):
            specialize(mini, "GP")


class TestEquivalence:
    def test_np_corpus_mq(self, grammar):
        corpus = [SemSpec(args=(NPSpec("TABLE", nbr="pl", spe=True),)),
                  SemSpec(args=(NPSpec("BIRD", nbr="sg", spe=True),))]
        assert equivalence_check(grammar, "MQ", corpus).ok

    def test_tma_corpus_gf(self, grammar):
        corpus = [SemSpec(pred="DANCE", tma=TMA(asp="imp")),
                  SemSpec(pred="DANCE", tma=TMA(prx=True))]
        assert equivalence_check(grammar, "GF", corpus).ok

    def test_empty_corpus(self, grammar):
        assert equivalence_check(grammar, "HT", []).ok

    def test_mismatch_listed(self, grammar, monkeypatch):
        # a specialized grammar that lost aux-Past realizes no past tense
        real = specialize_module.specialize

        def without_past(g, dialect):
            s = real(g, dialect)
            return Grammar(s.domains, [t for t in s.trees
                                       if t.name != "aux-Past"],
                           s.lexicon, s.fusion_rules, s.metadata)

        monkeypatch.setattr(specialize_module, "specialize", without_past)
        present = SemSpec(pred="DANCE", tma=TMA())
        past = SemSpec(pred="DANCE", tma=TMA(pas=True))
        report = equivalence_check(grammar, "HT", [present, past])
        assert not report.ok
        assert report.mismatches == [(past, [(("te", "danse"), ())], [])]

    @pytest.mark.parametrize("tma", [TMA(asp="imp"), TMA(prx=True)],
                             ids=["imp", "prx"])
    def test_specialized_grammar_folds_as_lan_does(self, grammar, tma):
        # one unnamed dialect lists ka dansé / dansé and k'alé / kay
        # dansé as one realization with an alternative, as lan={GF} does
        spec = SemSpec(pred="DANCE", tma=tma)

        def listed(g, s):
            return [(real.tokens, real.alternatives) for real in generate(g, s)]

        folded = listed(grammar, replace(spec, lan=frozenset({"GF"})))
        assert len(folded) == 1 and folded[0][1]
        assert listed(specialize(grammar, "GF"), spec) == folded

    @pytest.mark.parametrize("table", [table_np, table_tma])
    def test_tables_need_dialects(self, fresh_grammar, engine_calls, table):
        # a table has a column per dialect: none is bad input, found
        # before any row is searched
        specialized = specialize(fresh_grammar, "GF")
        with pytest.raises(InvalidSpec, match="no language attribute"):
            table(specialized)
        assert engine_calls["_derive"] == engine_calls["instantiate"] == 0


class TestProjection:
    def test_projection_keeps_everything(self, grammar):
        relaxed = project_language(grammar)
        assert len(relaxed.trees) == len(grammar.trees)
        assert sum(len(l.variants) for l in relaxed.lexicon) == \
            sum(len(l.variants) for l in grammar.lexicon)
        assert "lan" not in relaxed.schema


class TestDialectClaim:
    """The paper's claim both ways, on a sample of the whole spec space
    (`tests/dialect_claim.py` sweeps all of it): fixing `lan` to a
    dialect generates what the dialect's specialized grammar generates,
    and a generated string or one near it has an analysis in the dialect
    exactly where the specialized grammar has one."""

    @pytest.fixture(scope="class")
    def specialized(self, grammar):
        return {dialect: specialize(grammar, dialect) for dialect in DIALECTS}

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(specs=st.lists(st.sampled_from(SPACE), min_size=1, max_size=6))
    def test_generation_and_recognition_agree(self, grammar, specialized,
                                              specs):
        for dialect in DIALECTS:
            assert equivalence_check(grammar, dialect, specs).ok
        for spec in specs:
            for tokens in generated(grammar, spec):
                for variant in perturbed(tokens):
                    assert recognition_mismatches(
                        grammar, specialized, variant, goal_of(spec)) == []
