"""Seeded generator for the skew_long_csv corpus: long two-class posts.

Every word is a pseudo-word built from syllables. One pool of distinct words
is drawn first and then cut into three disjoint parts (calm words, stress
words, filler), so no token can belong to two classes or to a class and the
filler at once; a class word is therefore always evidence for its label.
"""

from __future__ import annotations

import csv

import numpy as np

N_RECORDS = 960
WORDS_PER_POST = (30, 80)  # inclusive range of post length in words
CLASS_WORDS = 40  # per class
FILLER_WORDS = 2400
CLASS_SHARE = 0.2  # share of a post's words drawn from its class pool
SUBREDDITS = ("anxiety", "ptsd", "relationships", "assistance", "homeless", "survivors")

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
           "br", "dr", "gl", "kr", "pl", "st", "tr", "sh", "ch")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ou", "ea")


def _word_pool(gen: np.random.Generator, n: int) -> list[str]:
    seen: dict[str, None] = {}
    while len(seen) < n:
        n_syl = int(gen.integers(2, 5))
        word = "".join(_ONSETS[gen.integers(len(_ONSETS))] + _VOWELS[gen.integers(len(_VOWELS))]
                       for _ in range(n_syl))
        seen.setdefault(word)
    return list(seen)


def generate(seed: int) -> list[tuple[str, int, str]]:
    """Rows of (text, label, subreddit) for one corpus seed.

    Record i has label i % 2 whatever the seed; only the text changes. The
    train/eval split and the client partition are keyed by position, so every
    seed gives the same shard sizes and label mix, hence the same work.
    """
    gen = np.random.Generator(np.random.PCG64(seed))
    pool = _word_pool(gen, 2 * CLASS_WORDS + FILLER_WORDS)
    class_pools = (pool[:CLASS_WORDS], pool[CLASS_WORDS:2 * CLASS_WORDS])
    filler = pool[2 * CLASS_WORDS:]
    if set(filler) & (set(class_pools[0]) | set(class_pools[1])) or set(class_pools[0]) & set(class_pools[1]):
        raise ValueError("class and filler word pools overlap")
    zipf = 1.0 / np.arange(1, len(filler) + 1)
    zipf /= zipf.sum()

    rows = []
    for i in range(N_RECORDS):
        label = i % 2
        n_words = int(gen.integers(WORDS_PER_POST[0], WORDS_PER_POST[1] + 1))
        words = [filler[j] for j in gen.choice(len(filler), size=n_words, p=zipf)]
        n_class = max(1, round(CLASS_SHARE * n_words))
        pool_k = class_pools[label]
        for pos in gen.choice(n_words, size=n_class, replace=False):
            words[pos] = pool_k[gen.integers(len(pool_k))]
        rows.append((" ".join(words), label, SUBREDDITS[gen.integers(len(SUBREDDITS))]))
    return rows


def stats(rows, max_seq_len: int) -> dict:
    """Records, tokens, distinct words, and sequences that fill max_seq_len.

    A sequence is [CLS] plus the post's words, so a post fills max_seq_len
    when it has at least max_seq_len - 1 words.
    """
    lengths = [len(text.split()) for text, _, _ in rows]
    return {
        "records": len(rows),
        "tokens": sum(lengths),
        "distinct_words": len({w for text, _, _ in rows for w in text.split()}),
        "sequences_filling_max_seq_len": sum(n + 1 >= max_seq_len for n in lengths),
    }


def write_csv(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["text", "label", "subreddit"])
        writer.writerows((text, label, sub) for text, label, sub in rows)
