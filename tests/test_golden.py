"""The exactness corpus: every digest of `golden/exact.json` recomputed.

A failure names each (label, word, family) whose answers changed; `python
tests/golden.py --dump FILE` writes the answers themselves for a diff.
"""

import json

import pytest

from golden import (
    FACE_FAMILIES, FACE_LABELS, FAMILIES, LABELS, PATH, SEED_FAMILIES, SEED_LABELS, digests,
    key, label_key, seed_words, words,
)

STORED = json.loads(PATH.read_text())


def test_the_corpus_covers_every_label():
    assert {key(label, word, family) for label in LABELS for word in words(label)
            for family in FAMILIES} | {label_key(label) for label in LABELS} | {
        key(label, word, family) for label in SEED_LABELS for word in seed_words(label)
        for family in SEED_FAMILIES} | {
        key(label, word, family) for label in FACE_LABELS for word in seed_words(label)
        for family in FACE_FAMILIES} == set(STORED)


@pytest.mark.parametrize("label", LABELS)
def test_answers_match_the_corpus(label):
    changed = [k for k, d in digests(label).items() if STORED.get(k) != d]
    assert not changed, changed
