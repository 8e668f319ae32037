"""The benchmark's workloads: seeded inputs, the operations and their checks.

A workload is a list of operations (one cycle).  The runner repeats the
same cycle until the measuring time is up, so every cycle does the same
work and the traced run can report work counts per cycle.  Each operation
is one call a user of the library or the CLI would make; its output is
checked after the cycle against a reference that does not come from the
call being timed:

* ``tables-tma``: the shipped golden TSV file, byte for byte;
* ``generate-mix``: token sets from the dialects' specialized grammars
  (computed by `generate_mix_references`, which the runner calls in a
  separate process), the golden cells, and the first cycle's output;
* ``recognize``: the golden strings' dialect columns, criterion 8's known
  answers, and "no analysis" for the particle stacks.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

from creoletag import dsl, generate as gen, recognize as rec, specialize as spz
from creoletag.creole import DIALECTS, shipped_grammar
from creoletag.errors import InvalidSpec, NoAnalysis, NoRealization

WORKLOADS = ("tables-tma", "generate-mix", "recognize")

GOLDEN_DIR = Path("src", "creoletag", "data", "golden")


@dataclass
class Op:
    kind: str
    label: str
    call: Callable[[dict], object]
    # check(value, exc) -> error message or None; `exc` is what the call raised
    check: Callable[[object, Optional[BaseException]], Optional[str]]
    # stable, comparable form of the outcome, for the determinism check
    digest: Callable[[object, Optional[BaseException]], object] = \
        lambda value, exc: None


@dataclass
class Workload:
    name: str
    ops: list
    cells_per_cycle: int = 0


def _unexpected(exc):
    return "raised %s: %s" % (type(exc).__name__, exc)


# --- golden tables ------------------------------------------------------------

def golden_rows(root: Path, name: str):
    """{row name: {dialect: cell text}} read straight from a golden TSV."""
    lines = (root / GOLDEN_DIR / ("%s.tsv" % name)).read_text(
        encoding="utf-8").splitlines()
    header = lines[0].split("\t")[1:]
    rows = {}
    for line in lines[1:]:
        fields = line.split("\t")
        rows[fields[0]] = dict(zip(header, fields[1:]))
    return rows


def _tables_tma(root):
    grammar = shipped_grammar()
    expected = (root / GOLDEN_DIR / "tma.tsv").read_bytes()

    def check(value, exc):
        if exc is not None:
            return _unexpected(exc)
        if value.encode("utf-8") != expected:
            return "table differs from golden tma.tsv"
        return None

    op = Op(kind="table-tma", label="table_tma",
            call=lambda ctx: gen.format_table(grammar, gen.table_tma(grammar)),
            check=check)
    return Workload(name="tables-tma", ops=[op], cells_per_cycle=48)


# --- generate-mix -----------------------------------------------------------------

NOUNS = ("PERSON", "TABLE", "DOG", "BIRD")
COMPLEMENTS = (None, "SAINT-THOMAS", "SAINT-LAURENT")
DETERMINATIONS = ((False, False), (True, False), (True, True))  # (spe, dem)
PAIRS = tuple(frozenset(p) for p in itertools.combinations(DIALECTS, 2))
# Sentence (S) requests per cycle; the only ones that reach `substitute`.
N_SENTENCES = 12


def tma_bundles():
    """Every TMA bundle the constructor accepts (32)."""
    out = []
    for pas, psp, prx, cnd in itertools.product((False, True), repeat=4):
        for asp in gen.ASPECTS:
            try:
                out.append(gen.TMA(pas=pas, psp=psp, prx=prx, cnd=cnd, asp=asp))
            except InvalidSpec:
                continue
    return out


# Two known defects of `generate`.  Both are kept out of the timed draw,
# which may hold no failing operation, and reported by `defect_probe`.

def is_defective_bundle(tma):
    """prx+cnd passes the TMA constructor, but `generate` then expands the
    conditional to pas+psp and rejects prx+psp with InvalidSpec for some
    dialects (NoRealization for MQ)."""
    return tma.prx and tma.cnd


def is_defective_sentence(spec):
    """A conditional sentence asked for MQ together with GP or GF (or for
    any dialect) also yields an MQ sentence with the syncretic `té ké`
    conditional, which neither MQ alone nor the MQ grammar produces."""
    lan = spec.lan
    return bool(spec.args and spec.pred and spec.tma.cnd and (
        lan is None or ("MQ" in lan and lan & {"GP", "GF"})))


def token_set(realizations):
    out = set()
    for real in realizations:
        out.add(real.tokens)
        out.update(real.alternatives)
    return frozenset(out)


def _cell_text(realizations):
    if len(realizations) != 1:
        return None
    real = realizations[0]
    return " / ".join(" ".join(t) for t in (real.tokens,) + real.alternatives)


def _realization_digest(value, exc):
    if exc is not None:
        return type(exc).__name__
    return tuple((r.tokens, tuple(sorted(r.lan_set)), r.alternatives)
                 for r in value)


def _generate_or_empty(grammar, spec):
    try:
        return token_set(gen.generate(grammar, spec))
    except NoRealization:
        return frozenset()


def _lan_draw(rng, count):
    """Balanced lan constraints: a third none, one dialect, two dialects."""
    kinds = [i % 3 for i in range(count)]
    rng.shuffle(kinds)
    out = []
    for kind in kinds:
        if kind == 0:
            out.append(None)
        elif kind == 1:
            out.append(frozenset([rng.choice(DIALECTS)]))
        else:
            out.append(rng.choice(PAIRS))
    return out


def generate_requests(seed):
    """The seeded SemSpec draw of one cycle: a coverage sweep, in
    proportions chosen here, not measured from CLI traffic.

    Every (noun, number, determination) NP base twice, with two of the
    three complement choices (which one is left out is dealt evenly); every
    accepted TMA bundle but the defective ones once; and `N_SENTENCES`
    sentences pairing a drawn NP with a drawn bundle.  Each request gets a
    lan constraint, a third each none, one dialect or two dialects; a
    sentence whose constraint hits the sentence defect is asked for one
    drawn dialect instead.
    """
    rng = random.Random(seed)
    bases = [(noun, nbr, spe, dem) for noun in NOUNS for nbr in gen.NUMBERS
             for spe, dem in DETERMINATIONS]
    left_out = [COMPLEMENTS[i % len(COMPLEMENTS)] for i in range(len(bases))]
    rng.shuffle(left_out)
    nps = [gen.NPSpec(noun, nbr=nbr, spe=spe, dem=dem, complement=comp)
           for (noun, nbr, spe, dem), skip in zip(bases, left_out)
           for comp in COMPLEMENTS if comp != skip]
    bundles = [t for t in tma_bundles() if not is_defective_bundle(t)]
    every_np = [gen.NPSpec(noun, nbr=nbr, spe=spe, dem=dem, complement=comp)
                for noun, nbr, spe, dem in bases for comp in COMPLEMENTS]
    sentences = [gen.SemSpec(pred="DANCE", tma=tma, args=(np,))
                 for np, tma in zip(rng.sample(every_np, N_SENTENCES),
                                    rng.sample(bundles, N_SENTENCES))]
    specs = [gen.SemSpec(args=(np,)) for np in nps]
    specs += [gen.SemSpec(pred="DANCE", tma=tma) for tma in bundles]
    specs += sentences
    specs = [replace(s, lan=lan) for s, lan in zip(specs, _lan_draw(rng, len(specs)))]
    specs = [replace(s, lan=frozenset([rng.choice(DIALECTS)]))
             if is_defective_sentence(s) else s for s in specs]
    rng.shuffle(specs)
    return specs


def _golden_cells(root):
    """{(NPSpec or TMA, dialect): golden cell text}."""
    cells = {}
    for name, table in (("np", gen.NP_ROWS), ("tma", gen.TMA_ROWS)):
        rows = golden_rows(root, name)
        for row_name, key in table:
            for dialect, text in rows[row_name].items():
                cells[(key, dialect)] = text
    return cells


def _golden_key(spec):
    if spec.pred is None:
        return spec.args[0]
    if not spec.args:
        return spec.tma
    return None


def _request_dialects(spec):
    return sorted(spec.lan) if spec.lan else list(DIALECTS)


def generate_mix_references(seed):
    """What `generate-mix` checks its outputs against, as JSON data: each
    dialect's specialized grammar, serialized, and for each request of the
    draw the token set that the specialized grammars of its dialects give.

    The runner computes this in a separate process, so that the workload
    process's peak RSS holds none of these grammars or their derivations.
    """
    grammar = shipped_grammar()
    specialized = {d: spz.specialize(grammar, d) for d in DIALECTS}
    per_dialect = {}

    def expected(spec, dialect):
        key = (replace(spec, lan=None), dialect)
        if key not in per_dialect:
            per_dialect[key] = _generate_or_empty(specialized[dialect], key[0])
        return per_dialect[key]

    wants = []
    for spec in generate_requests(seed):
        want = frozenset().union(*(expected(spec, d)
                                   for d in _request_dialects(spec)))
        wants.append(sorted(list(tokens) for tokens in want))
    return {"texts": {d: dsl.serialize(g) for d, g in specialized.items()},
            "wants": wants}


def _generate_mix(root, seed, references=None):
    grammar = shipped_grammar()
    specs = generate_requests(seed)
    if references is None:
        references = generate_mix_references(seed)
    texts = references["texts"]
    wants = [frozenset(tuple(tokens) for tokens in want)
             for want in references["wants"]]
    golden = _golden_cells(root)
    ops = []
    rng = random.Random(seed)
    for dialect in rng.sample(DIALECTS, len(DIALECTS)):
        def rebuild(ctx, d=dialect):
            ctx[d] = dsl.load_grammar(dsl.serialize(spz.specialize(grammar, d)))
            return ctx[d]

        def check_rebuild(value, exc, d=dialect):
            if exc is not None:
                return _unexpected(exc)
            if dsl.serialize(value) != texts[d]:
                return "specialized %s grammar does not round-trip" % d
            return None

        ops.append(Op(kind="specialize", label="specialize %s" % dialect,
                      call=rebuild, check=check_rebuild))

    for spec, want in zip(specs, wants):
        dialects = _request_dialects(spec)
        ops.append(Op(kind="generate", label=repr(spec),
                      call=lambda ctx, s=spec: gen.generate(grammar, s),
                      check=_token_check(want, golden.get(
                          (_golden_key(spec), dialects[0]))
                          if len(dialects) == 1 else None),
                      digest=_realization_digest))
        if len(dialects) == 1:
            bare = replace(spec, lan=None)
            ops.append(Op(kind="generate-specialized",
                          label="%r on the %s grammar" % (bare, dialects[0]),
                          call=lambda ctx, s=bare, d=dialects[0]:
                          gen.generate(ctx[d], s),
                          check=_token_check(want), digest=_realization_digest))
    return Workload(name="generate-mix", ops=ops)


def _token_check(want, cell=None):
    """Token set equal to `want`; one realization spelled `cell`, if given."""
    def check(value, exc):
        if isinstance(exc, NoRealization):
            value = []
        elif exc is not None:
            return _unexpected(exc)
        if token_set(value) != want:
            return "token set %s != specialized grammars' %s" % (
                sorted(token_set(value)), sorted(want))
        if cell is not None and _cell_text(value) != cell:
            return "cell %r != golden %r" % (_cell_text(value), cell)
        return None
    return check


def defect_probe():
    """What the program does today on both known defects; not timed."""
    grammar = shipped_grammar()
    specialized = {d: spz.specialize(grammar, d) for d in DIALECTS}
    out = {}
    for tma in tma_bundles():
        if not is_defective_bundle(tma):
            continue
        for lan in (None,) + DIALECTS:
            spec = gen.SemSpec(pred="DANCE", tma=tma,
                               lan=None if lan is None else frozenset([lan]))
            try:
                result = " | ".join(" ".join(r.tokens)
                                    for r in gen.generate(grammar, spec))
            except Exception as exc:  # record whatever the program does
                result = "%s: %s" % (type(exc).__name__, exc)
            out["Pred prx+cnd asp=%s lan=%s" % (tma.asp, lan or "any")] = result
    spec = gen.SemSpec(pred="DANCE", tma=gen.TMA(cnd=True),
                       args=(gen.NPSpec("BIRD", nbr="pl", spe=True),))
    want = {d: _generate_or_empty(specialized[d], spec) for d in DIALECTS}
    for lan in (None, frozenset({"GP", "MQ"}), frozenset({"GF", "MQ"})):
        got = _generate_or_empty(grammar, replace(spec, lan=lan))
        extra = got - frozenset().union(
            *(want[d] for d in (sorted(lan) if lan else DIALECTS)))
        key = "S cnd lan=%s" % ("any" if lan is None else ",".join(sorted(lan)))
        out[key] = ("extra: " + " | ".join(" ".join(t) for t in sorted(extra))
                    if extra else "consistent")
    return out


# --- recognize --------------------------------------------------------------------

FUSED_PARTICLES = ("tap", "vap", "ta")
# criterion 8's known answers
MIXED = ("sé zwazo la", (frozenset({"GP", "MQ"}), frozenset({"HT"}),
                         frozenset({"GP", "MQ"})))
UNMIXED = ("té ké dansé", frozenset({"GP", "MQ", "GF"}))


def golden_strings(root):
    """{(string, goal): dialects whose golden column holds the string}.

    Each of those dialects must be in the language set of some analysis."""
    out = {}
    for name, goal in (("np", "NP"), ("tma", "Pred")):
        for cells in golden_rows(root, name).values():
            for dialect, text in cells.items():
                for form in text.split(" / "):
                    out.setdefault((form, goal), set()).add(dialect)
    return {key: frozenset(v) for key, v in sorted(out.items())}


def particle_stacks():
    """Haitian TMA particle stacks that no derivation covers, 3 to 7 tokens.

    Every pair of fused particles except the grammatical `ta vap`, the
    ladder `tap^k danse` for k = 2..6, and `ta vap ta vap danse`.
    """
    stacks = [" ".join(p) + " danse"
              for p in itertools.product(FUSED_PARTICLES, repeat=2)
              if p != ("ta", "vap")]
    stacks += [" ".join(["tap"] * k) + " danse" for k in range(3, 7)]
    stacks.append("ta vap ta vap danse")
    return stacks


def _analysis_digest(value, exc):
    if exc is not None:
        return type(exc).__name__
    if isinstance(value, (frozenset, rec.MixedReport)):
        return repr(value)
    return tuple((tuple(sorted(a.lan_set)), a.mixed) for a in value)


def _recognize(root, seed):
    grammar = shipped_grammar()
    ops = []
    for (text, goal), dialects in golden_strings(root).items():
        def check(value, exc, dialects=dialects):
            if exc is not None:
                return _unexpected(exc)
            missing = dialects - frozenset().union(*(a.lan_set for a in value))
            if missing:
                return "no analysis covers %s" % sorted(missing)
            return None

        ops.append(Op(kind="recognize", label="%s %r" % (goal, text),
                      call=lambda ctx, t=text, g=goal: rec.recognize(grammar, t, g),
                      check=check, digest=_analysis_digest))

    def check_mixed(value, exc):
        if exc is not None:
            return _unexpected(exc)
        if not isinstance(value, rec.MixedReport) or \
                value.per_token_lan != MIXED[1]:
            return "expected a mixed report %s, got %r" % (MIXED[1], value)
        return None

    def check_unmixed(value, exc):
        if exc is not None:
            return _unexpected(exc)
        if value != UNMIXED[1]:
            return "expected %s, got %r" % (sorted(UNMIXED[1]), value)
        return None

    for text, check in ((MIXED[0], check_mixed), (UNMIXED[0], check_unmixed)):
        ops.append(Op(kind="identify", label="identify %r" % text,
                      call=lambda ctx, t=text: rec.identify_dialect(grammar, t),
                      check=check, digest=_analysis_digest))

    def check_stack(value, exc):
        if isinstance(exc, NoAnalysis):
            return None
        if exc is not None:
            return _unexpected(exc)
        return "expected no analysis, got %d" % len(value)

    for text in particle_stacks():
        ops.append(Op(kind="stack", label="Pred %r" % text,
                      call=lambda ctx, t=text: rec.recognize(grammar, t, "Pred"),
                      check=check_stack, digest=_analysis_digest))
    random.Random(seed).shuffle(ops)
    return Workload(name="recognize", ops=ops)


def build(name: str, seed: int, root: Path, references=None) -> Workload:
    """The workload's ops; `references` is what `generate_mix_references`
    returned for `generate-mix` (computed here when not given)."""
    if name == "tables-tma":
        return _tables_tma(root)
    if name == "generate-mix":
        return _generate_mix(root, seed, references)
    if name == "recognize":
        return _recognize(root, seed)
    raise ValueError("unknown workload %r" % name)
