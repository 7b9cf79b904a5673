import pytest

from patternqa.stem import stem


def test_write_family_shares_stem():
    assert stem("wrote") == stem("written") == stem("writes") == stem("writing") == "writ"


@pytest.mark.parametrize("a,b", [
    ("die", "died"),
    ("play", "played"),
    ("master", "mastered"),
    ("perish", "perished"),
    ("pen", "penned"),
    ("arrive", "arrived"),
    ("comedy", "comedies"),
    ("is", "was"),
    ("has", "had"),
])
def test_related_forms_match(a, b):
    assert stem(a) == stem(b)


@pytest.mark.parametrize("a,b", [
    ("wrote", "penned"),
    ("die", "perish"),
    ("play", "master"),
])
def test_unrelated_forms_do_not_match(a, b):
    assert stem(a) != stem(b)


def test_case_insensitive():
    assert stem("Written") == stem("wrote")


@pytest.mark.parametrize("word, expected", [
    ("seed", "see"),  # "-eed" drops only its "d", and the word is then too short to lose "e"
    ("proceed", "proce"),  # not "proc", as "-ed" then "-e" would make it
    ("proceeds", "proce"),
])
def test_eed_keeps_its_double_e(word, expected):
    assert stem(word) == expected
