"""Walk through corpus loading and count-based featurization.

Loads the fixture corpus, which arrives as columns in file order plus one
token-count matrix per language, and shows how tone tokens are excluded from
name length but kept in the count rows.
"""

import os

import numpy as np

from soundskew.corpus import (
    ATTRIBUTE_NAMES, featurize, load_corpus, name_length)

DATA = os.path.join(os.path.dirname(__file__), "..", "data")

corpus, inventories = load_corpus(
    os.path.join(DATA, "corpus.csv"), os.path.join(DATA, "inventory.csv"))

print(f"{len(corpus)} entries across {sorted(inventories)} languages")
for language in sorted(corpus.counts):
    rows, tokens = corpus.counts[language].shape
    print(f"  {language}: {rows} names x {tokens} inventory tokens")
print()

for language in ("jpn", "cmn"):
    inventory = inventories[language]
    # The language's first name: row 0 of its matrix, and its first row in
    # the corpus columns.
    counts = corpus.counts[language][0]
    row = np.flatnonzero(corpus.language == language)[0]
    print(f"{corpus.ids[row]}")
    nonzero = {inventory.tokens[i]: int(c)
               for i, c in enumerate(counts) if c}
    print(f"  counts: {nonzero}")
    print(f"  transcription tokens: {counts.sum()}, "
          f"name length (tones excluded): {corpus.length[row]}")
    attributes = dict(zip(ATTRIBUTE_NAMES, corpus.attributes[row].tolist()))
    print(f"  attributes: {attributes}\n")

# The loader featurizes a whole language in one call, from the names' tokens
# as inventory indices, one name after another, and each name's token count;
# the same two helpers work on any transcriptions.
inventory = inventories["cmn"]
names = [["n", "i", "T:3", "t"], ["t", "i", "T:1", "t", "i", "T:1"]]
token_ids = [inventory.index[token] for name in names for token in name]
counts = featurize(token_ids, [len(name) for name in names], inventory)
print(f"counts of {names}: rows summing to {counts.sum(axis=1).tolist()}, "
      f"name lengths {name_length(counts, inventory).tolist()}")
