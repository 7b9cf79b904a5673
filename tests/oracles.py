"""Independent oracles and generators used to check the implementation.

These deliberately avoid sharing code paths with the package: the edit
distance is a memoized recursion (the package uses an iterative DP row),
the alignment enumerator works over a flat (start, end, label) node list
(the package walks the tree with pruning) and applies relaxation from the
measure definitions, and the metric oracle keeps sets of question ids
over log records (the package counts outcomes and rescues). BM25 scores
every sentence and sorts them all (the package visits the posting lists
and stops early). The question readers (POS pairs, signature, phrases,
content words) are kept here as the tree walks they were before questions
were read through their analysed view. The tree type, its parser and the
walk that analysed a tree are kept here as the reference that the one-pass
``treebank.parse_sentence`` is checked against. Extraction is also kept
without the run's memo, every unification and NER pass computed afresh.
Pattern learning is kept as it was before it read tags in place: one
``Pattern`` per sentence from a whole-sentence tag dict and a sorted region
list, then one per element sequence. Its answer span is found as it was
before the search skipped needles that hold an article: in a token tuple
rebuilt with every article blanked. An outcome's log line is kept as the
record dict it was built from, dumped by ``json.dumps`` with sorted keys.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from functools import lru_cache
from sys import intern

from hypothesis import strategies as st

from patternqa.corpus import ARTICLES, normalize_answer, tokenize
from patternqa.extraction import MAX_GAZETTEER_SPAN, _keep_maximal, extract_ner
from patternqa.knowledge import (ANSWER_SLOT, LEXICAL, MAX_PATTERN_ELEMENTS, SIGNATURE_DEPTH,
                                 Pattern, Signature, _covering_label,
                                 _find_subsequence, _question_phrases, answer_slot, lexical,
                                 syntactic)
from patternqa.classify import Category, wh_word
from patternqa.pipeline import CheckpointReport, apply_feedback, oracle_select, pattern_candidates
from patternqa.retrieval import BM25_B, BM25_K1, STOPWORDS, content_words
from patternqa.stem import stem
from patternqa.treebank import PUNCTUATION, Sentence, TreeFormatError, strip_decorations
from patternqa.unification import RELAX_NONE, RelaxConfig


@dataclass(frozen=True, slots=True)
class ParseTree:
    """A constituency tree node.

    A node carries a ``token`` iff it has no children (leaves store their
    surface form verbatim; their ``label`` equals the token). A preterminal
    is a node whose single child is a leaf (e.g. ``(NNP Dante)``).
    """

    label: str
    children: tuple["ParseTree", ...] = ()
    token: str | None = None

    def __post_init__(self):
        if (self.token is None) == (len(self.children) == 0):
            raise ValueError("a node has a token iff it has zero children")

    @property
    def is_leaf(self) -> bool:
        return self.token is not None

    @property
    def is_preterminal(self) -> bool:
        return len(self.children) == 1 and self.children[0].is_leaf


def leaf(token: str) -> ParseTree:
    return ParseTree(label=token, token=token)


def node(label: str, children) -> ParseTree:
    return ParseTree(label=label, children=tuple(children))


_ATOM = re.compile(r"[^()\s]+")


def parse_bracketed(text: str) -> ParseTree:
    """Parse one bracketed tree, e.g. ``(NP (NNP Dante))``.

    Raises :class:`TreeFormatError` (with a 1-based character offset) on
    unbalanced parentheses, a missing label after ``(``, or empty input.
    """
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def fail(message):
        raise TreeFormatError(message, pos + 1)

    def read_atom():
        nonlocal pos
        m = _ATOM.match(text, pos)
        if m is None:
            fail("expected a label or token")
        pos = m.end()
        return m.group()

    skip_ws()
    if pos >= n:
        fail("empty input")
    if text[pos] != "(":
        fail("expected '('")
    # An explicit stack of open nodes, so nesting depth is bounded by memory,
    # not by the interpreter's recursion limit.
    open_nodes: list[tuple[str, list[ParseTree]]] = []
    while True:
        ch = text[pos]
        if ch == "(":
            pos += 1
            skip_ws()
            if pos >= n:
                fail("unexpected end of input")
            if text[pos] in "()":
                fail("empty label")
            open_nodes.append((strip_decorations(read_atom()), []))
        elif ch == ")":
            pos += 1
            label, children = open_nodes.pop()
            if not children:
                fail("node without children")
            if not open_nodes:
                tree = node(label, children)
                break
            open_nodes[-1][1].append(node(label, children))
        else:
            open_nodes[-1][1].append(leaf(read_atom()))
        skip_ws()
        if pos >= n:
            fail("unexpected end of input")
    skip_ws()
    if pos < n:
        fail("trailing characters after tree")
    return tree


def serialize(tree: ParseTree) -> str:
    """Inverse of :func:`parse_bracketed`, modulo whitespace."""
    if tree.is_leaf:
        return tree.token
    inner = " ".join(serialize(c) for c in tree.children)
    return f"({tree.label} {inner})"


def node_spans(tree: ParseTree) -> list[tuple[ParseTree, int, int]]:
    """Preorder list of ``(node, start, end)`` half-open leaf spans."""
    out: list = []
    count = 0  # leaves seen so far
    open_nodes = []  # (node, its entry in out, start, iterator over the rest of its children)
    cur = tree
    while True:
        if cur.token is not None:  # is_leaf, without a property call on this hot path
            out.append((cur, count, count + 1))
            count += 1
        else:
            open_nodes.append((cur, len(out), count, iter(cur.children)))
            out.append(None)
        while open_nodes:
            nd, entry, start, rest = open_nodes[-1]
            cur = next(rest, None)
            if cur is not None:
                break
            open_nodes.pop()
            out[entry] = (nd, start, count)
        else:
            return out


def analyse(tree: ParseTree) -> Sentence:
    """The :class:`Sentence` view of ``tree``, from one walk. Tokens and
    labels are interned, so the views of a collection share their strings."""
    spans = node_spans(tree)
    tokens = tuple(intern(nd.token) for nd, _, _ in spans if nd.token is not None)
    lowered = tuple(intern(token.lower()) for token in tokens)
    by_start: list[list[tuple[int, str, bool]]] = [[] for _ in tokens]
    for nd, start, end in spans:
        if nd.token is None:
            by_start[start].append((end, intern(nd.label), nd.is_preterminal))
    return Sentence(
        tokens=tokens,
        lowered=lowered,
        stripped=tuple(intern(PUNCTUATION.sub("", low)) for low in lowered),
        constituents=tuple(map(tuple, by_start)),
    )


def leaves(tree: ParseTree) -> list[str]:
    """Left-to-right token sequence of the sentence under ``tree``."""
    out = []
    stack = [tree]
    while stack:
        cur = stack.pop()
        if cur.is_leaf:
            out.append(cur.token)
        else:
            stack.extend(reversed(cur.children))
    return out


def dfs_nodes(tree: ParseTree) -> list[ParseTree]:
    """Preorder (top-down, left-to-right, depth-first) node sequence, leaves
    included."""
    out = []
    stack = [tree]
    while stack:
        cur = stack.pop()
        out.append(cur)
        stack.extend(reversed(cur.children))
    return out


def tagged_leaves_oracle(tree: ParseTree) -> list[tuple[str, str]]:
    """``(token, POS tag)`` of each preterminal, in preorder."""
    return [(nd.children[0].token, nd.label) for nd in dfs_nodes(tree) if nd.is_preterminal]


def signature_oracle(tree: ParseTree, category: Category) -> Signature:
    """The question signature from a recursive walk that stops below depth
    SIGNATURE_DEPTH."""
    wh, _ = wh_word(tagged_leaves_oracle(tree))
    labels = []

    def walk(nd: ParseTree, depth: int):
        if nd.is_leaf or depth > SIGNATURE_DEPTH:
            return
        labels.append(nd.label)
        for child in nd.children:
            walk(child, depth + 1)

    walk(tree, 0)
    return Signature(category=category, structure_key=f"{wh}|{' '.join(labels)}")


def is_content_word(low: str) -> bool:
    """The query and index term rule, character by character: a lowercased
    token that is not a stopword and holds a letter or digit."""
    return low not in STOPWORDS and any(c.isalnum() for c in low)


def content_words_oracle(tree: ParseTree) -> list[str]:
    """Non-stopword leaves holding a letter or digit, lowercased."""
    return [low for low in (tok.lower() for tok in leaves(tree)) if is_content_word(low)]


def question_phrases_oracle(tree: ParseTree) -> list[tuple[str, ...]]:
    """Lowercased tokens of each phrasal node holding a content word, first
    occurrence in preorder."""
    phrases = []
    seen = set()
    lowered = [t.lower() for t in leaves(tree)]
    for nd, s, e in node_spans(tree):
        if nd.is_leaf or nd.is_preterminal:
            continue
        tokens = tuple(lowered[s:e])
        if not any(is_content_word(t) for t in tokens):
            continue
        if tokens in seen:
            continue
        seen.add(tokens)
        phrases.append(tokens)
    return phrases


def levenshtein_oracle(a: str, b: str) -> int:
    @lru_cache(maxsize=None)
    def dist(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            dist(i - 1, j) + 1,
            dist(i, j - 1) + 1,
            dist(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )

    return dist(len(a), len(b))


def similarity_oracle(a: str, b: str, measure: str) -> float:
    """The three lexical similarity measures, from their definitions: the
    edit distance comes from :func:`levenshtein_oracle`, the character
    bigram sets are rebuilt here."""
    if measure == "levenshtein":
        longest = max(len(a), len(b))
        return 1.0 if longest == 0 else 1.0 - levenshtein_oracle(a, b) / longest
    grams_a = {a[i : i + 2] for i in range(len(a) - 1)}
    grams_b = {b[i : i + 2] for i in range(len(b) - 1)}
    shared = len(grams_a & grams_b)
    if measure == "overlap":
        return 1.0 if not grams_a or not grams_b else shared / min(len(grams_a), len(grams_b))
    return 1.0 if not grams_a and not grams_b else shared / len(grams_a | grams_b)


RELAXATION_LABELS = {(False, False): "none", (True, False): "lexical",
                     (False, True): "syntactic", (True, True): "both"}


def brute_force_alignments(pattern: Pattern, tree: ParseTree,
                           config: RelaxConfig | None = None) -> dict[tuple[int, int], str]:
    """Answer span -> relaxation label for every contiguous unit alignment
    of the pattern, tried naively at every leaf offset. Exact matching when
    ``config`` is None; otherwise tokens may match by similarity and tags by
    shared superclass, as far as the config enables. A span keeps the label
    of the first alignment reaching it, in unify's documented order: leaf
    offsets ascending, then depth-first with units in preorder."""
    tokens = leaves(tree)
    units = [(s, e, nd.label) for nd, s, e in node_spans(tree) if not nd.is_leaf]
    lexical_on = config is not None and config.enable_lexical
    syntactic_on = config is not None and config.enable_syntactic
    superclass = dict(config.tag_hierarchy) if config is not None else {}
    found: dict[tuple[int, int], str] = {}

    def rec(idx: int, pos: int, captured, lex_used: bool, syn_used: bool):
        if idx == len(pattern.elements):
            if captured is not None and captured not in found:
                found[captured] = RELAXATION_LABELS[lex_used, syn_used]
            return
        element = pattern.elements[idx]
        if element.kind == LEXICAL:
            if pos >= len(tokens):
                return
            token, value = tokens[pos].lower(), element.value.lower()
            if token == value:
                rec(idx + 1, pos + 1, captured, lex_used, syn_used)
            elif lexical_on and similarity_oracle(
                    token, value, config.lexical_measure) >= config.lexical_threshold:
                rec(idx + 1, pos + 1, captured, True, syn_used)
            return
        for s, e, label in units:
            if s != pos:
                continue
            if label == element.value:
                relaxed = False
            elif syntactic_on and superclass.get(label, label) == \
                    superclass.get(element.value, element.value):
                relaxed = True
            else:
                continue
            rec(idx + 1, e, (s, e) if element.kind == ANSWER_SLOT else captured,
                lex_used, syn_used or relaxed)

    for start in range(len(tokens) + 1):
        rec(0, start, None, False, False)
    return found


def brute_force_answer_spans(pattern: Pattern, tree: ParseTree) -> set[tuple[int, int]]:
    """Every answer span of an exact alignment."""
    return set(brute_force_alignments(pattern, tree))


PHRASE_LABELS = ["S", "NP", "VP", "PP", "SBAR", "ADJP"]
PRETERM_LABELS = ["NN", "NNP", "NNS", "VBD", "VBZ", "VBN", "DT", "JJ", "IN"]
VOCAB = ["alpha", "beta", "gamma", "delta", "omega", "kilo", "lima", "mike"]

TEST_SIGNATURE = Signature(Category("ENTY", "other"), "test|S")


def random_tree(rng: random.Random, max_leaves: int = 12) -> ParseTree:
    def build(n_leaves: int) -> ParseTree:
        if n_leaves == 1:
            tree = node(rng.choice(PRETERM_LABELS), [leaf(rng.choice(VOCAB))])
            if rng.random() < 0.3:
                tree = node(rng.choice(PHRASE_LABELS), [tree])
            return tree
        k = rng.randint(2, min(3, n_leaves))
        cuts = sorted(rng.sample(range(1, n_leaves), k - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [n_leaves])]
        return node(rng.choice(PHRASE_LABELS), [build(size) for size in sizes])

    return build(rng.randint(1, max_leaves))


def trees(labels, tokens):
    """Hypothesis strategy: preterminals, and phrases over preterminals,
    phrases and bare leaves, so unary chains with equal spans occur."""
    return st.recursive(
        st.builds(lambda label, token: node(label, [leaf(token)]), labels, tokens),
        lambda kids: st.builds(node, labels,
                               st.lists(kids | st.builds(leaf, tokens), min_size=1, max_size=3)),
        max_leaves=14)


def random_pattern(rng: random.Random, tree: ParseTree) -> Pattern:
    """A valid pattern whose values are drawn mostly from the tree so that
    alignments actually happen, with occasional misses mixed in."""
    tree_labels = [nd.label for nd, _, _ in node_spans(tree) if not nd.is_leaf]
    tree_tokens = leaves(tree)
    length = rng.randint(2, 5)
    slot_at = rng.randrange(length)
    elements = []
    for i in range(length):
        if i == slot_at:
            pool = tree_labels if rng.random() < 0.8 else PHRASE_LABELS + PRETERM_LABELS
            elements.append(answer_slot(rng.choice(pool)))
        elif rng.random() < 0.4:
            pool = tree_tokens if tree_tokens and rng.random() < 0.8 else VOCAB
            elements.append(lexical(rng.choice(pool)))
        else:
            pool = tree_labels if rng.random() < 0.8 else PHRASE_LABELS + PRETERM_LABELS
            elements.append(syntactic(rng.choice(pool)))
    return Pattern(tuple(elements), TEST_SIGNATURE, (("gen", "gen:0"),))


def misspell(rng: random.Random, pattern: Pattern) -> Pattern:
    """The pattern with about half its literal tokens changed by one
    character, so that lexical relaxation has near misses to find."""
    elements = []
    for element in pattern.elements:
        value = element.value
        if element.kind == LEXICAL and rng.random() < 0.5:
            at = rng.randrange(len(value))
            value = value[:at] + rng.choice("aeioxz") + value[at + rng.randint(0, 1):]
            element = lexical(value)
        elements.append(element)
    return Pattern(tuple(elements), pattern.signature, pattern.provenances)


def naive_revise(state, pending: list[str], checkpoint: int,
                 learn_on_revision: bool = True) -> CheckpointReport:
    """Reference for ``pipeline.revise`` that retries every pending question
    in full at every checkpoint. A pattern is excluded when one of its
    provenance pairs names the question, read from the pairs themselves."""
    report = CheckpointReport(checkpoint=checkpoint, retried=list(pending), newly_correct=[])
    for qid in pending:
        record = state.interpretations.get(qid)
        if record is None:
            continue
        applicable = [p for p in state.kb.lookup(record.signature)
                      if all(source != qid for source, _ in p.provenances)]
        final = oracle_select(pattern_candidates(applicable, record.sentences, state.relax),
                              record.question.answers)
        if final is None:
            continue
        report.newly_correct.append(qid)
        if learn_on_revision:
            report.patterns_learned += apply_feedback(state, record, final.text)
    return report


_TRAILING_PUNCT = re.compile(r"^(.*?)([.,?!;:]*)$")


def tokenize_oracle(text: str) -> list[str]:
    """``corpus.tokenize`` as one regex match per whitespace chunk: the
    shortest prefix, then the run of terminal punctuation that ends it."""
    out = []
    for chunk in text.split():
        word, punct = _TRAILING_PUNCT.match(chunk).groups()
        if word:
            out.append(word)
        out.extend(punct)
    return out


def extract_candidates_oracle(state, record, use_patterns: bool, use_ner: bool,
                              exclude_own: bool = False) -> list:
    """Reference for ``pipeline.extract_candidates`` that never reads or
    fills ``state.memo``: it unifies every (pattern, sentence) pair and runs
    NER on every sentence again. A pattern is excluded when one of its
    provenance pairs names the question."""
    candidates = []
    if use_patterns:
        applicable = [p for p in state.kb.lookup(record.signature)
                      if not exclude_own
                      or all(source != record.question.id for source, _ in p.provenances)]
        candidates = pattern_candidates(applicable, record.sentences, state.relax)
    if use_ner:
        found = {(c.doc_id, c.position, c.span) for c in candidates}
        candidates += [c for c in extract_ner(record.category, record.sentences,
                                              state.gazetteer, state.regex_rules)
                       if (c.doc_id, c.position, c.span) not in found]
    return candidates


def gazetteer_spans_oracle(tokens: list[str], forms: frozenset[str]) -> list[tuple[int, int]]:
    """Gazetteer windows found by normalizing the text of every window of at
    most MAX_GAZETTEER_SPAN tokens that opens and closes on a token that
    normalizes to something."""
    if not forms:
        return []
    spans = []
    n = len(tokens)
    for start in range(n):
        if not normalize_answer(tokens[start]):  # articles/punctuation cannot open a span
            continue
        for end in range(start + 1, min(n, start + MAX_GAZETTEER_SPAN) + 1):
            if not normalize_answer(tokens[end - 1]):
                continue
            if normalize_answer(" ".join(tokens[start:end])) in forms:
                spans.append((start, end))
                break
    return _keep_maximal(spans)


def coarse_classes_oracle(table: dict[str, set[str]], form: str) -> set[str]:
    """Coarse classes of the labels whose (normalized) forms hold ``form``,
    by a scan over every label."""
    normalized = normalize_answer(form)
    return {label.split(":")[0] for label, forms in table.items() if normalized in forms}


def bm25_oracle(docs, query_terms: list[str], k: int) -> list[tuple[str, int, float]]:
    """BM25 (k1=1.2, b=0.75) the slow obvious way: ``(doc_id, position,
    score)`` of every sentence holding a query term, each score summed over
    the query terms in sorted order, fully sorted by (-score, doc_id,
    position), cut to k."""
    sentences = []
    for doc in docs:
        for position, (_, view) in enumerate(doc.sentences):
            words = [w for w in (t.lower() for t in view.tokens) if is_content_word(w)]
            sentences.append((doc.doc_id, position, words))
    n = len(sentences)
    if n == 0:
        return []
    avg = sum(len(words) for _, _, words in sentences) / n
    terms = sorted({t.lower() for t in query_terms})
    df = {term: sum(1 for _, _, words in sentences if term in words) for term in terms}
    scored = []
    for doc_id, position, words in sentences:
        score, hit = 0.0, False
        for term in terms:
            tf = words.count(term)
            if tf:
                norm = BM25_K1 * (1.0 - BM25_B + BM25_B * len(words) / avg)
                idf = math.log(1.0 + (n - df[term] + 0.5) / (df[term] + 0.5))
                score += idf * tf * (BM25_K1 + 1.0) / (tf + norm)
                hit = True
        if hit:
            scored.append((doc_id, position, score))
    scored.sort(key=lambda item: (-item[2], item[0], item[1]))
    return scored[:max(k, 0)]


def count_metrics_oracle(records: list[dict], revision=(),
                         fallback_as_answered: bool = False) -> list[tuple]:
    """``(i, P_i, R_i, correct_i, answered_i)`` per prefix from raw outcome
    records (``id``, ``correct``, ``candidates``, ``fallback_used``), kept
    as sets of question ids the way the pipeline once counted its revision
    series: after point ``c``, the questions rescued at checkpoint ``c``
    join the correct and answered sets. Under the fallback convention the
    answered set is the union of the answered and fallback sets."""
    rescued = {report.checkpoint: report.newly_correct for report in revision}
    correct_ids, answered_ids, fallback_ids = set(), set(), set()
    out = []
    for i, record in enumerate(records, 1):
        if record["correct"]:
            correct_ids.add(record["id"])
        if record["candidates"]:
            answered_ids.add(record["id"])
        if record["fallback_used"]:
            fallback_ids.add(record["id"])
        correct = len(correct_ids)
        answered = len(answered_ids | fallback_ids if fallback_as_answered else answered_ids)
        out.append((i, correct / answered if answered else 1.0, correct / i, correct, answered))
        correct_ids.update(rescued.get(i, ()))
        answered_ids.update(rescued.get(i, ()))
    return out


def answer_span_oracle(sentence: Sentence, forms) -> tuple[int, int] | None:
    """First occurrence of the answer's lowercased tokens, else of its
    normalized words among the sentence's tokens normalized one by one."""
    raw, normalized = forms
    span = _find_subsequence(sentence.lowered, raw, None)
    if span is not None:
        return span
    normalized_sentence = tuple("" if w in ARTICLES else w for w in sentence.stripped)
    return _find_subsequence(normalized_sentence, normalized, None)


def _pattern_from_sentence_oracle(question_id: str, answer_forms, retrieved,
                                  signature: Signature, phrases: list[tuple[str, ...]],
                                  content_stems: set[str]) -> Pattern | None:
    sentence = retrieved.view
    ans = answer_span_oracle(sentence, answer_forms)
    if ans is None:
        return None
    ans_label = _covering_label(sentence, *ans)
    if ans_label is None:
        return None

    matched = []
    for phrase in phrases:
        hit = _find_subsequence(sentence.lowered, phrase, ans)
        if hit is None:
            continue
        label = _covering_label(sentence, *hit)
        if label is None:
            continue
        matched.append((hit, label))
    # keep maximal non-overlapping phrase spans, longest first
    matched.sort(key=lambda item: (-(item[0][1] - item[0][0]), item[0][0]))
    kept: list[tuple[tuple[int, int], str]] = []
    for span, label in matched:
        if any(not (span[1] <= k[0][0] or span[0] >= k[0][1]) for k in kept):
            continue
        kept.append((span, label))
    if not kept:
        return None
    kept.sort(key=lambda item: item[0][0])

    start = min(ans[0], kept[0][0][0])
    end = max(ans[1], kept[-1][0][1])
    pos_tags = {s: label for s, nodes in enumerate(sentence.constituents)
                for _, label, is_preterminal in nodes if is_preterminal}

    elements = []
    i = start
    regions = [(ans, answer_slot(ans_label))] + [(sp, syntactic(lb)) for sp, lb in kept]
    regions.sort(key=lambda item: item[0])
    region_index = {sp[0]: (sp, el) for sp, el in regions}
    while i < end:
        if i in region_index:
            span, element = region_index[i]
            elements.append(element)
            i = span[1]
            continue
        token = sentence.tokens[i]
        # the one change: a leaf without a preterminal has no tag and stays literal
        if stem(token) in content_stems and i in pos_tags:
            elements.append(syntactic(pos_tags[i]))
        else:
            elements.append(lexical(token))
        i += 1
    if len(elements) > MAX_PATTERN_ELEMENTS:
        return None
    sentence_id = f"{retrieved.doc_id}:{retrieved.position}"
    return Pattern(tuple(elements), signature, ((question_id, sentence_id),))


def learn_patterns_oracle(question, answer: str, sentences, signature: Signature) -> list[Pattern]:
    """Reference for ``knowledge.learn_patterns``: one ``Pattern`` per
    learnable sentence, then one per element sequence, provenances merged."""
    if not answer:
        return []
    answer_forms = (tuple(t.lower() for t in tokenize(answer)),
                    tuple(normalize_answer(answer).split()))
    phrases = _question_phrases(question)
    content_stems = {stem(w) for w in content_words(question.parse)}
    by_elements: dict[tuple, list[tuple[str, str]]] = {}
    for sentence in sorted(sentences, key=lambda s: (s.doc_id, s.position)):
        pattern = _pattern_from_sentence_oracle(question.id, answer_forms, sentence, signature,
                                                phrases, content_stems)
        if pattern is None:
            continue
        by_elements.setdefault(pattern.elements, []).extend(pattern.provenances)
    return [Pattern(elements, signature, provs) for elements, provs in by_elements.items()]


def _candidate_record(cand) -> dict:
    return {
        "text": cand.text,
        "span": list(cand.span),
        "strategy": cand.strategy,
        "relaxation": cand.relaxation_used,
        "doc_id": cand.doc_id,
        "position": cand.position,
        "pattern": cand.pattern_provenance,
    }


def outcome_line_oracle(outcome) -> str:
    """One ``outcomes.jsonl`` line, as the run wrote it before the writer
    assembled lines itself: a record dict dumped with sorted keys."""
    final = outcome.final
    record = {
        "id": outcome.question_id,
        "category": outcome.category,
        "correct": outcome.correct,
        "answered": outcome.answered,
        "fallback_used": outcome.fallback_used,
        "final": final.text if final else None,
        "final_strategy": final.strategy if final else None,
        "relaxation_used": final.relaxation_used if final else RELAX_NONE,
        "patterns_learned": outcome.patterns_learned,
        "error": outcome.error,
        "candidates": [_candidate_record(c) for c in outcome.candidates],
    }
    return json.dumps(record, sort_keys=True) + "\n"
