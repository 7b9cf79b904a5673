import pytest

from patternqa.classify import Category, classify, load_hint_table, tagged_leaves, wh_word
from patternqa.corpus import Question
from patternqa.treebank import parse_sentence


def make_question(text, parse, category=None):
    return Question(id="t", text=text, parse=parse_sentence(parse),
                    category=category, answers=("x",))


FRANCE = make_question(
    "Who did France beat for the World Cup?",
    "(SBARQ (WHNP (WP Who)) (SQ (VBD did) (NP (NNP France)) (VP (VB beat) "
    "(PP (IN for) (NP (DT the) (NNP World) (NNP Cup))))) (. ?))",
)


def test_misclassification_is_preserved():
    # the true answer is a country, but the wh-rule says person
    assert classify(FRANCE) == Category("HUM", "ind")


def test_who_wrote_is_hum_ind(dante_question):
    assert classify(dante_question) == Category("HUM", "ind")


def test_gold_label_wins_over_rules():
    gold = make_question(FRANCE.text, "(SBARQ (WHNP (WP Who)) (SQ (VBD did) "
                         "(NP (NNP France)) (VP (VB beat) (PP (IN for) "
                         "(NP (DT the) (NNP World) (NNP Cup))))) (. ?))",
                         category="LOC:country")
    assert classify(gold) == Category("LOC", "country")


@pytest.mark.parametrize("text,parse,expected", [
    ("Where is the Louvre?",
     "(SBARQ (WHADVP (WRB Where)) (SQ (VBZ is) (NP (DT the) (NNP Louvre))) (. ?))",
     Category("LOC", "other")),
    ("When did Columbus arrive?",
     "(SBARQ (WHADVP (WRB When)) (SQ (VBD did) (NP (NNP Columbus)) (VP (VB arrive))) (. ?))",
     Category("NUM", "date")),
    ("How many planets are there?",
     "(SBARQ (WHNP (WHADJP (WRB How) (JJ many)) (NNS planets)) (SQ (VP (VBP are) (NP (EX there)))) (. ?))",
     Category("NUM", "count")),
    ("How did Malcolm X die?",
     "(SBARQ (WHADVP (WRB How)) (SQ (VBD did) (NP (NNP Malcolm) (NNP X)) (VP (VB die))) (. ?))",
     Category("DESC", "manner")),
    ("What country borders Spain?",
     "(SBARQ (WHNP (WDT What) (NN country)) (SQ (VP (VBZ borders) (NP (NNP Spain)))) (. ?))",
     Category("LOC", "country")),
    ("What instrument did Miles Davis play?",
     "(SBARQ (WHNP (WDT What) (NN instrument)) (SQ (VBD did) (NP (NNP Miles) (NNP Davis)) (VP (VB play))) (. ?))",
     Category("ENTY", "instru")),
    ("What is the Playboy logo?",
     "(SBARQ (WHNP (WP What)) (SQ (VBZ is) (NP (DT the) (NNP Playboy) (NN logo))) (. ?))",
     Category("ENTY", "other")),
])
def test_rule_table(text, parse, expected):
    assert classify(make_question(text, parse)) == expected


def test_classification_is_deterministic(dante_question):
    hints = load_hint_table()
    assert classify(dante_question, hints) == classify(dante_question, hints)


def test_wh_word_detection(dante_question):
    assert wh_word(tagged_leaves(dante_question.parse)) == ("who", 0)


def test_category_validation():
    with pytest.raises(ValueError):
        Category("BOGUS", "x")
    assert str(Category.parse("HUM:ind")) == "HUM:ind"
    assert Category.parse("HUM").fine == "other"


def test_custom_hint_table(tmp_path):
    path = tmp_path / "hints.tsv"
    path.write_text("gadget\tENTY:product\n")
    hints = load_hint_table(path)
    q = make_question(
        "What gadget is that?",
        "(SBARQ (WHNP (WDT What) (NN gadget)) (SQ (VBZ is) (NP (DT that))) (. ?))",
    )
    assert classify(q, hints) == Category("ENTY", "product")
