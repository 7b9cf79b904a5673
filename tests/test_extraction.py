from hypothesis import example, given, strategies as st

from patternqa.classify import Category
from patternqa.corpus import normalize_answer, read_table
from patternqa.extraction import (Gazetteer, _gazetteer_spans, extract_ner, load_gazetteer,
                                  load_regex_rules, normalized_form)
from patternqa.retrieval import RetrievedSentence
from patternqa.treebank import PUNCTUATION, parse_sentence

from .oracles import (analyse, coarse_classes_oracle, entity_spans_oracle, gazetteer_spans_oracle,
                      leaf, node)

GAZETTEER = load_gazetteer()
REGEX_RULES = load_regex_rules()


def rsent(text, parse, doc_id="doc", position=0):
    return RetrievedSentence(text, parse_sentence(parse), 1.0, doc_id, position)


COLUMBUS = rsent(
    "Columbus arrived in America in 1492 .",
    "(S (NP (NNP Columbus)) (VP (VBD arrived) (PP (IN in) (NP (NNP America))) "
    "(PP (IN in) (NP (CD 1492)))) (. .))",
)

DANTE = rsent(
    "Dante has written The Divine Comedy",
    "(S (NP (NNP Dante)) (VP (VBZ has) (VP (VBN written) "
    "(NP (DT The) (NNP Divine) (NNP Comedy)))))",
)

FRANCE = rsent(
    "France beat Brazil in the World Cup final .",
    "(S (NP (NNP France)) (VP (VBD beat) (NP (NNP Brazil)) (PP (IN in) "
    "(NP (DT the) (NNP World) (NNP Cup) (NN final)))) (. .))",
)


def texts(candidates):
    return [c.text for c in candidates]


def test_num_date_regex_finds_year():
    out = extract_ner(Category("NUM", "date"), [COLUMBUS], GAZETTEER, REGEX_RULES)
    assert texts(out) == ["1492"]
    assert out[0].strategy == "ner"


def test_desc_has_no_strategy():
    out = extract_ner(Category("DESC", "manner"), [COLUMBUS, DANTE], GAZETTEER, REGEX_RULES)
    assert out == []


def test_capitalized_sequences_for_hum():
    out = extract_ner(Category("HUM", "ind"), [DANTE], GAZETTEER, REGEX_RULES)
    assert texts(out) == ["Dante", "The Divine Comedy"]


def test_sentence_initial_stopword_does_not_open_a_run():
    playboy = rsent(
        "The Playboy logo is a rabbit .",
        "(S (NP (DT The) (NNP Playboy) (NN logo)) (VP (VBZ is) (NP (DT a) (NN rabbit))) (. .))",
    )
    out = extract_ner(Category("ENTY", "other"), [playboy], GAZETTEER, REGEX_RULES)
    assert texts(out) == ["Playboy"]


def test_misclassified_person_question_misses_country():
    # the question about the World Cup winner is typed HUM:ind, but Brazil
    # is gazetteer-known as a country, so the person extractor drops it
    out = extract_ner(Category("HUM", "ind"), [FRANCE], GAZETTEER, REGEX_RULES)
    assert texts(out) == ["World Cup"]
    assert all(normalize_answer(c.text) != "brazil" for c in out)


def test_same_span_allowed_for_matching_coarse_class():
    out = extract_ner(Category("LOC", "country"), [FRANCE], GAZETTEER, REGEX_RULES)
    assert "Brazil" in texts(out)
    assert "France" in texts(out)


def test_gazetteer_hits_for_fine_class():
    trumpet = rsent(
        "Miles Davis mastered the trumpet .",
        "(S (NP (NNP Miles) (NNP Davis)) (VP (VBD mastered) (NP (DT the) (NN trumpet))) (. .))",
    )
    out = extract_ner(Category("ENTY", "instru"), [trumpet], GAZETTEER, REGEX_RULES)
    assert "trumpet" in texts(out)
    assert all(c.span == (4, 5) for c in out if c.text == "trumpet")


def test_abbreviation_extraction():
    nato = rsent(
        "The treaty organization -LRB- NATO -RRB- was founded .",
        "(S (NP (DT The) (NN treaty) (NN organization)) (PRN (-LRB- -LRB-) "
        "(NP (NNP NATO)) (-RRB- -RRB-)) (VP (VBD was) (VP (VBN founded))) (. .))",
    )
    out = extract_ner(Category("ABBR", "abb"), [nato], GAZETTEER, REGEX_RULES)
    assert texts(out) == ["NATO"]


def test_spans_never_overlap_per_sentence():
    sentences = [
        COLUMBUS,
        DANTE.__class__(DANTE.text, DANTE.view, 1.0, "doc", 1),
        FRANCE.__class__(FRANCE.text, FRANCE.view, 1.0, "doc", 2),
    ]
    for category in (Category("HUM", "ind"), Category("NUM", "date"), Category("LOC", "country")):
        out = extract_ner(category, sentences, GAZETTEER, REGEX_RULES)
        by_sentence = {}
        for cand in out:
            by_sentence.setdefault((cand.doc_id, cand.position), []).append(cand.span)
        for spans in by_sentence.values():
            ordered = sorted(spans)
            for (s1, e1), (s2, e2) in zip(ordered, ordered[1:]):
                assert e1 <= s2


def test_output_ordered_by_sentence_then_span():
    second = rsent("Shakespeare has written Hamlet",
                   "(S (NP (NNP Shakespeare)) (VP (VBZ has) (VP (VBN written) (NP (NNP Hamlet)))))",
                   position=1)
    out = extract_ner(Category("HUM", "ind"), [DANTE, second], GAZETTEER, REGEX_RULES)
    keys = [(c.position, c.span) for c in out]
    assert keys == sorted(keys)


def test_spelled_out_count():
    planets = rsent(
        "There are eight planets in the Solar System .",
        "(S (NP (EX There)) (VP (VBP are) (NP (CD eight) (NNS planets)) "
        "(PP (IN in) (NP (DT the) (NNP Solar) (NNP System)))) (. .))",
    )
    out = extract_ner(Category("NUM", "count"), [planets], GAZETTEER, REGEX_RULES)
    assert texts(out) == ["eight"]


def test_custom_gazetteer_and_regex_files(tmp_path):
    gaz_path = tmp_path / "gaz.tsv"
    gaz_path.write_text("ENTY:color\tburnt sienna\n")
    gazetteer = load_gazetteer(gaz_path)
    assert gazetteer.forms("ENTY:color") == frozenset({"burnt sienna"})
    assert gazetteer.coarse_classes_of("burnt sienna") == {"ENTY"}

    rx_path = tmp_path / "rx.tsv"
    rx_path.write_text("NUM:other\t\\b[0-9]+\\b\n")
    rules = load_regex_rules(rx_path)
    assert "NUM:other" in rules and len(rules["NUM:other"]) == 1


def test_regex_values_keep_their_spaces(tmp_path):
    rx_path = tmp_path / "rx.tsv"
    rx_path.write_text("# comment\n\n  NUM:count\t [0-9]+ \n")
    assert [p.pattern for p in load_regex_rules(rx_path)["NUM:count"]] == [" [0-9]+ "]


# articles in both cases, punctuation-only tokens, bracket tokens, dotted
# abbreviations and non-ASCII tokens (final sigma, dotted capital I)
GAZETTEER_TOKENS = st.sampled_from([
    "the", "The", "THE", "a", "A", "an", "An", ",", ".", "--", "'", "-LRB-", "-RRB-",
    "U.S.", "u.s", "US", "New", "york", "York", "of", "Bay", "Pigs", "Zürich", "ZÜRICH",
    "São", "Paulo", "ΟΔΟΣ", "οδος", "İstanbul", "Tom's", "_", "3-0",
]) | st.text(alphabet="aZé.-'Σ_ ", min_size=1, max_size=4).map(lambda t: t.replace(" ", ""))


@example(["The", "New", "York", "."], [(0, 3)])
@example(["Bay", "of", "the", ",", "Pigs", "the"], [(0, 6)])
@example(["The", "a", "İstanbul", "-LRB-", "Tom's", "ΟΔΟΣ", "."], [(2, 4)])
@given(st.lists(GAZETTEER_TOKENS.filter(bool), min_size=1, max_size=12),
       st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=6))
def test_gazetteer_window_join_matches_normalized_windows(tokens, windows):
    """Joining a window's stripped tokens gives the same spans as
    normalizing the window's text, against forms drawn from the sentence's
    own windows plus a few others. The gazetteer key that NER computes for
    a capitalized run from its stripped tokens is, for every window,
    ``normalize_answer`` of the window's text."""
    forms = {normalize_answer(" ".join(tokens[s:e])) for s, e in windows}
    # forms that are not normalized (the gazetteer loader normalizes every
    # form) tell the window rules apart from normalization alone
    forms |= {" ".join(PUNCTUATION.sub("", t.lower()) for t in tokens[s:e]) for s, e in windows}
    forms |= {"new york", "bay of pigs", "us", "zürich", "the", "a bay"}
    stripped = analyse(node("S", [node("NN", [leaf(token)]) for token in tokens])).stripped
    gazetteer = Gazetteer({"X:y": forms})
    assert _gazetteer_spans(stripped, gazetteer.forms("X:y"), gazetteer.first_words("X:y")) == \
        gazetteer_spans_oracle(tokens, frozenset(forms))
    assert _gazetteer_spans(stripped, frozenset(), frozenset()) == []
    for start in range(len(tokens)):
        for end in range(start + 1, len(tokens) + 1):
            assert normalized_form(stripped[start:end]) == \
                normalize_answer(" ".join(tokens[start:end]))


# forms that share a first word, forms of several words and forms with an
# article inside; "the"/"a" alone normalize to nothing
SHARED_FORMS = frozenset({"new york", "new york city", "new jersey", "new", "york",
                          "bay of the pigs", "bay of pigs", "isle of a man", "city"})


@example(["The", "New", "York", "City", "of", "the", "Bay", "of", "the", "Pigs"])
@example(["new", "new", "jersey", ",", "Isle", "of", "a", "Man", "the"])
@given(st.lists(st.sampled_from(["New", "new", "York", "City", "Jersey", "Bay", "of", "the", "The",
                                 "Pigs", "Isle", "a", "Man", ",", "-LRB-"]),
                min_size=1, max_size=14))
def test_gazetteer_first_word_lookup_matches_oracle(tokens):
    stripped = analyse(node("S", [node("NN", [leaf(token)]) for token in tokens])).stripped
    gazetteer = Gazetteer({"LOC:city": set(SHARED_FORMS)})
    assert gazetteer.first_words("LOC:city") == {"new", "york", "bay", "isle", "city"}
    assert _gazetteer_spans(stripped, gazetteer.forms("LOC:city"),
                            gazetteer.first_words("LOC:city")) == \
        gazetteer_spans_oracle(tokens, SHARED_FORMS)


SEVERAL_LABELS = {"LOC:city": {"paris", "new york", "saint helena"},
                  "LOC:country": {"france", "saint helena"},
                  "HUM:ind": {"paris", "helena"},
                  "ENTY:other": {"paris", "new york"}}


@example("Paris")
@example("The Saint Helena .")
@given(st.sampled_from(sorted({form for forms in SEVERAL_LABELS.values() for form in forms})
                       + ["rome", "saint", "york"]).flatmap(lambda form: st.sampled_from(
                           [form, form.upper(), "the " + form, form + " ,", "A " + form.title()])))
def test_coarse_classes_lookup_matches_scan(form):
    assert Gazetteer(SEVERAL_LABELS).coarse_classes_of(normalize_answer(form)) == \
        coarse_classes_oracle(SEVERAL_LABELS, form)


def test_shipped_gazetteer_lookups_match_scan():
    table: dict[str, set[str]] = {}
    for label, form in read_table("gazetteer.tsv"):
        table.setdefault(label, set()).add(normalize_answer(form))
    for forms in table.values():
        for form in forms:
            for text in (form, form.title(), "The " + form.upper()):
                assert GAZETTEER.coarse_classes_of(normalize_answer(text)) == \
                    coarse_classes_oracle(table, text)
    for label, forms in table.items():
        assert GAZETTEER.forms(label) == forms
        assert GAZETTEER.first_words(label) == {form.split()[0] for form in forms}


# forms of several words, forms sharing words across coarse classes, and
# forms that normalize to "" (an article, punctuation)
ENTITY_FORMS = {
    "LOC:city": ["New York", "Paris", "York Harbor", "the Bay of Pigs"],
    "HUM:ind": ["Paris Hilton", "York", "New"],
    "ENTY:other": ["Bay of Pigs", "The", ",", "Harbor"],
    "LOC:country": ["France", "A"],
}
ENTITY_TOKENS = ["The", "the", "A", "New", "York", "Paris", "Hilton", "Harbor", "Bay", "of",
                 "Pigs", "France", "Rome", "saw", "in", ",", ".", "-LRB-", "\u24b6"]
ENTITY_CATEGORIES = [Category("HUM", "ind"), Category("LOC", "city"), Category("ENTY", "other"),
                     Category("LOC", "country"), Category("HUM", "gr")]


@example(["We", "saw", "Paris", "."], {"LOC:city": {"Paris"}}, Category("HUM", "ind"))
@example(["in", "York", "Harbor", "Rome"], {"HUM:ind": {"York"}}, Category("LOC", "city"))
@example(["The", "Bay", "of", "the", "Pigs", "New", "York"], ENTITY_FORMS, Category("ENTY", "other"))
@example(["saw", "The", "\u24b6", "A", "Rome"], {"ENTY:other": {"The"}}, Category("HUM", "ind"))
@example(["saw", "\u24b6", ","], {"ENTY:other": {","}}, Category("LOC", "city"))
@example(["in", "A", "France"], {"LOC:country": {"A", "France"}}, Category("HUM", "ind"))
@given(st.lists(st.sampled_from(ENTITY_TOKENS), min_size=1, max_size=10),
       st.dictionaries(st.sampled_from(sorted(ENTITY_FORMS)), st.sets(st.sampled_from(
           sorted({form for forms in ENTITY_FORMS.values() for form in forms}))), max_size=4),
       st.sampled_from(ENTITY_CATEGORIES))
def test_entity_extraction_matches_full_lookups(tokens, raw_table, category):
    """NER skips the gazetteer scan of a sentence that holds no first word
    of its label's forms, and the coarse-class lookup of a capitalized run
    that holds no word of any form; it finds what full lookups find. A run
    holding a word of a form of another coarse class is still looked up,
    and so is one that normalizes to "" when a form does."""
    table = {label: {normalize_answer(form) for form in forms} for label, forms in raw_table.items()}
    sentence = rsent(" ".join(tokens), "(S " + " ".join(f"(X {t})" for t in tokens) + ")")
    found = extract_ner(category, [sentence], Gazetteer(table), REGEX_RULES)
    assert [c.span for c in found] == entity_spans_oracle(category, tokens, table)
    assert texts(found) == [" ".join(tokens[s:e]) for s, e in (c.span for c in found)]
