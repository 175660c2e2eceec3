"""Semi-naive fixpoint iteration (Bancilhon & Ramakrishnan, SIGMOD 1986)."""

from __future__ import annotations


def semi_naive(seeds, derive, max_generations: int | None = None):
    """Closure of the seeds under derive, each combination taken once.

    derive(old, new, known) returns a dict {item: reason} over the
    combinations of old + new that contain a member of new: new holds the
    items of the last generation, old all items found before it.  A
    combination within old was taken in an earlier round, so every generation
    equals the one a rescan of all combinations finds.  Items already known
    are dropped.  The loop stops when a round adds nothing, or after
    max_generations rounds that added something.  Returns (known,
    generations), known mapping each item to its reason, None for the seeds.
    """
    known = dict.fromkeys(seeds)
    old: list = []
    new = list(known)
    generation = 0
    while max_generations is None or generation < max_generations:
        found = {k: v for k, v in derive(old, new, known).items() if k not in known}
        if not found:
            break
        known.update(found)
        old += new
        new = list(found)
        generation += 1
    return known, generation
